// Package bench regenerates every table and figure of the paper's
// evaluation (§4): the per-category performance audit (Table 1), the
// ApoA-I/BC1/bR scaling tables on the ASCI-Red, T3E, and Origin 2000
// machine models (Tables 2-6), the grainsize histograms before and after
// splitting (Figures 1-2), and the timeline views before and after the
// multicast optimization (Figures 3-4). Each experiment returns both our
// measured values and the paper's published numbers for side-by-side
// reporting.
package bench

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"gonamd/internal/core"
	"gonamd/internal/machine"
	"gonamd/internal/molgen"
	"gonamd/internal/spatial"
)

// ListDist is the pairlist distance used for all workloads (cutoff+1.5 Å,
// NAMD's typical pairlistdist for a 12 Å cutoff).
const ListDist = molgen.Cutoff + 1.5

var (
	wlMu    sync.Mutex
	wlCache = map[string]*core.Workload{}
)

// buildWorkload builds (once per process) the workload of a preset.
func buildWorkload(spec molgen.Spec) (*core.Workload, error) {
	wlMu.Lock()
	defer wlMu.Unlock()
	if w, ok := wlCache[spec.Name]; ok {
		return w, nil
	}
	spec.Temperature = 0 // velocities are irrelevant for the cluster sim
	sys, st, err := molgen.Build(spec)
	if err != nil {
		return nil, err
	}
	grid, err := spatial.NewGridDims(spec.Box, spec.PatchDims, molgen.Cutoff)
	if err != nil {
		return nil, err
	}
	w, err := core.BuildWorkload(spec.Name, sys, st, grid, molgen.Cutoff, ListDist)
	if err != nil {
		return nil, err
	}
	wlCache[spec.Name] = w
	return w, nil
}

// ApoA1Workload returns the 92,224-atom ApoA-I benchmark workload.
func ApoA1Workload() (*core.Workload, error) { return buildWorkload(molgen.ApoA1()) }

// BC1Workload returns the 206,617-atom BC1 benchmark workload.
func BC1Workload() (*core.Workload, error) { return buildWorkload(molgen.BC1()) }

// BRWorkload returns the 3,762-atom bR benchmark workload.
func BRWorkload() (*core.Workload, error) { return buildWorkload(molgen.BR()) }

// StdConfig is the fully-optimized configuration the paper's results use:
// grainsize splitting, separated migratable bonded computes, and the
// optimized multicast, with the three-stage load balancer.
func StdConfig(model machine.Model, pes int) core.Config {
	return core.Config{
		PEs:          pes,
		Model:        model,
		SplitSelf:    true,
		GrainSplit:   true,
		SplitBonded:  true,
		MulticastOpt: true,
	}
}

// ScalingRow is one row of a scaling table.
type ScalingRow struct {
	PEs      int
	StepTime float64 // s/step, measured
	Speedup  float64
	GFLOPS   float64

	// Paper's published values for the same row (0 when not reported).
	PaperStep    float64
	PaperSpeedup float64
	PaperGFLOPS  float64
}

// RunScaling measures step times for each PE count and normalizes
// speedups so that the row with PEs == basePE has speedup == baseSpeedup
// (the paper normalizes BC1 to 2 at 2 processors and T3E ApoA-I to 4 at
// 4 processors).
func RunScaling(w *core.Workload, model machine.Model, peCounts []int, basePE int, baseSpeedup float64) ([]ScalingRow, error) {
	rows := make([]ScalingRow, 0, len(peCounts))
	var baseTime float64
	for _, pes := range peCounts {
		sim, err := core.NewSim(w, StdConfig(model, pes))
		if err != nil {
			return nil, err
		}
		res := sim.Run()
		row := ScalingRow{PEs: pes, StepTime: res.AvgStep, GFLOPS: res.GFLOPS}
		rows = append(rows, row)
		if pes == basePE {
			baseTime = res.AvgStep
		}
	}
	if baseTime == 0 {
		return nil, fmt.Errorf("bench: base PE count %d not in list", basePE)
	}
	for i := range rows {
		rows[i].Speedup = baseSpeedup * baseTime / rows[i].StepTime
	}
	return rows, nil
}

// FormatScaling renders rows as an aligned text table including the
// paper's reference values when present.
func FormatScaling(title string, rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%6s  %12s  %9s  %8s  |  %12s  %9s  %8s\n",
		"procs", "s/step", "speedup", "GFLOPS", "paper s/step", "speedup", "GFLOPS")
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%6d  %12.4g  %9.1f  %8.3g  |  ", r.PEs, r.StepTime, r.Speedup, r.GFLOPS))
		if r.PaperStep > 0 {
			fmt.Fprintf(&b, "%12.4g  %9.1f  ", r.PaperStep, r.PaperSpeedup)
			if r.PaperGFLOPS > 0 {
				fmt.Fprintf(&b, "%8.3g", r.PaperGFLOPS)
			} else {
				fmt.Fprintf(&b, "%8s", "-")
			}
			b.WriteByte('\n')
		} else {
			fmt.Fprintf(&b, "%12s  %9s  %8s\n", "-", "-", "-")
		}
	}
	// The error against the paper: relative s/step over the rows it reports.
	var sum, worst float64
	n, worstPEs := 0, 0
	for _, r := range rows {
		if r.PaperStep > 0 {
			d := 100 * math.Abs(r.StepTime/r.PaperStep-1)
			sum += d
			n++
			if d > worst {
				worst, worstPEs = d, r.PEs
			}
		}
	}
	if n > 0 {
		fmt.Fprintf(&b, "s/step vs paper over %d rows: mean |Δ| %.1f %%, max |Δ| %.1f %% at %d PEs\n",
			n, sum/float64(n), worst, worstPEs)
	}
	return b.String()
}

// attachPaper merges the paper's reference values into measured rows by
// PE count. ref rows are {pes, s/step, speedup, gflops}.
func attachPaper(rows []ScalingRow, ref [][4]float64) []ScalingRow {
	for i := range rows {
		for _, pr := range ref {
			if int(pr[0]) == rows[i].PEs {
				rows[i].PaperStep = pr[1]
				rows[i].PaperSpeedup = pr[2]
				rows[i].PaperGFLOPS = pr[3]
			}
		}
	}
	return rows
}
