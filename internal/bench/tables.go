package bench

import (
	"fmt"
	"strings"

	"gonamd/internal/core"
	"gonamd/internal/machine"
	"gonamd/internal/projections"
)

// Paper reference data, transcribed from the paper's tables.
var (
	paperTable2 = [][4]float64{ // ApoA-I on ASCI-Red
		{1, 57.1, 1, 0.0480}, {4, 14.7, 3.9, 0.186}, {8, 7.31, 7.8, 0.375},
		{32, 1.9, 30.1, 1.44}, {64, 0.964, 59.2, 2.84}, {128, 0.493, 116, 5.56},
		{256, 0.259, 221, 10.6}, {512, 0.152, 376, 18.0}, {768, 0.102, 560, 26.9},
		{1024, 0.0822, 695, 33.3}, {1536, 0.0645, 885, 42.5}, {2048, 0.0573, 997, 47.8},
	}
	paperTable3 = [][4]float64{ // BC1 on ASCI-Red (normalized to 2 PEs)
		{2, 74.2, 2, 0.0933}, {4, 37.8, 3.9, 0.183}, {8, 19.3, 7.7, 0.359},
		{32, 4.91, 30.3, 1.41}, {64, 2.49, 59.6, 2.78}, {128, 1.26, 118, 5.49},
		{256, 0.653, 227, 10.6}, {512, 0.352, 422, 19.7}, {768, 0.246, 603, 28.1},
		{1024, 0.192, 773, 36.1}, {1536, 0.141, 1052, 49.1}, {2048, 0.119, 1252, 58.4},
	}
	paperTable4 = [][4]float64{ // bR on ASCI-Red (no GFLOPS reported)
		{1, 1.47, 1, 0}, {2, 0.759, 1.94, 0}, {4, 0.384, 3.83, 0}, {8, 0.196, 7.50, 0},
		{32, 0.071, 20.7, 0}, {64, 0.0358, 41.1, 0}, {128, 0.0299, 49.2, 0}, {256, 0.0300, 49.0, 0},
	}
	paperTable5 = [][4]float64{ // ApoA-I on T3E-900 (normalized to 4 PEs)
		{4, 10.7, 4.0, 0.256}, {8, 5.28, 8.1, 0.519}, {16, 2.64, 16.2, 1.04},
		{32, 1.35, 31.7, 2.03}, {64, 0.688, 62.2, 3.98}, {128, 0.356, 120, 7.69},
		{256, 0.185, 231, 14.8},
	}
	paperTable6 = [][4]float64{ // ApoA-I on Origin 2000
		{1, 24.4, 1, 0.112}, {2, 12.5, 1.95, 0.219}, {4, 6.30, 3.89, 0.435},
		{8, 3.18, 7.68, 0.862}, {16, 1.60, 15.2, 1.71}, {32, 0.860, 28.4, 3.19},
		{64, 0.411, 59.4, 6.67}, {80, 0.349, 70.0, 7.86},
	}

	// Table 1's rows (milliseconds), for reporting alongside ours.
	PaperTable1Ideal = projections.Audit{
		Total: 57.04e-3, Nonbonded: 52.44e-3, Bonded: 3.16e-3, Integration: 1.44e-3,
	}
	PaperTable1Actual = projections.Audit{
		Total: 86e-3, Nonbonded: 49.77e-3, Bonded: 3.9e-3, Integration: 3.05e-3,
		Overhead: 7.97e-3, Imbalance: 10.45e-3, Idle: 9.25e-3, Receives: 1.61e-3,
	}
)

func peList(ref [][4]float64) []int {
	out := make([]int, len(ref))
	for i, r := range ref {
		out[i] = int(r[0])
	}
	return out
}

// Table2 reproduces the ApoA-I scaling study on the ASCI-Red model.
func Table2() ([]ScalingRow, error) {
	w, err := ApoA1Workload()
	if err != nil {
		return nil, err
	}
	rows, err := RunScaling(w, machine.ASCIRed(), peList(paperTable2), 1, 1)
	if err != nil {
		return nil, err
	}
	return attachPaper(rows, paperTable2), nil
}

// Table3 reproduces the BC1 scaling study on the ASCI-Red model,
// normalized to speedup 2.0 at 2 processors as in the paper.
func Table3() ([]ScalingRow, error) {
	w, err := BC1Workload()
	if err != nil {
		return nil, err
	}
	rows, err := RunScaling(w, machine.ASCIRed(), peList(paperTable3), 2, 2)
	if err != nil {
		return nil, err
	}
	return attachPaper(rows, paperTable3), nil
}

// Table4 reproduces the bR scaling study on the ASCI-Red model.
func Table4() ([]ScalingRow, error) {
	w, err := BRWorkload()
	if err != nil {
		return nil, err
	}
	rows, err := RunScaling(w, machine.ASCIRed(), peList(paperTable4), 1, 1)
	if err != nil {
		return nil, err
	}
	return attachPaper(rows, paperTable4), nil
}

// Table5 reproduces the ApoA-I scaling study on the T3E-900 model,
// normalized to speedup 4.0 at 4 processors.
func Table5() ([]ScalingRow, error) {
	w, err := ApoA1Workload()
	if err != nil {
		return nil, err
	}
	rows, err := RunScaling(w, machine.T3E(), peList(paperTable5), 4, 4)
	if err != nil {
		return nil, err
	}
	return attachPaper(rows, paperTable5), nil
}

// Table6 reproduces the ApoA-I scaling study on the Origin 2000 model.
func Table6() ([]ScalingRow, error) {
	w, err := ApoA1Workload()
	if err != nil {
		return nil, err
	}
	rows, err := RunScaling(w, machine.Origin2000(), peList(paperTable6), 1, 1)
	if err != nil {
		return nil, err
	}
	return attachPaper(rows, paperTable6), nil
}

// Table1 reproduces the 1024-processor ApoA-I performance audit: the
// ideal (perfect-scaling) decomposition and the measured one.
func Table1() (ideal, actual projections.Audit, err error) {
	w, err := ApoA1Workload()
	if err != nil {
		return
	}
	model := machine.ASCIRed()
	cfg := StdConfig(model, 1024)
	cfg.CollectTrace = true
	sim, err := core.NewSim(w, cfg)
	if err != nil {
		return
	}
	res := sim.Run()
	actual, err = res.MeasuredAudit()
	if err != nil {
		return
	}
	ideal = core.IdealAudit(&model, res.Counts, 1024)
	return
}

// FormatAudit renders Table 1 with the paper's values alongside.
func FormatAudit(ideal, actual projections.Audit) string {
	var b strings.Builder
	b.WriteString("Table 1: ApoA-I performance audit on 1024 PEs (ms per step per PE)\n")
	fmt.Fprintf(&b, "%-18s %8s %10s %7s %12s %9s %10s %6s %9s\n",
		"", "Total", "Nonbonded", "Bonds", "Integration", "Overhead", "Imbalance", "Idle", "Receives")
	row := func(name string, a projections.Audit) {
		fmt.Fprintf(&b, "%-18s %8.2f %10.2f %7.2f %12.2f %9.2f %10.2f %6.2f %9.2f\n",
			name, a.Total*1e3, a.Nonbonded*1e3, a.Bonded*1e3, a.Integration*1e3,
			a.Overhead*1e3, a.Imbalance*1e3, a.Idle*1e3, a.Receives*1e3)
	}
	row("ideal", ideal)
	row("actual", actual)
	row("paper ideal", PaperTable1Ideal)
	row("paper actual", PaperTable1Actual)
	return b.String()
}
