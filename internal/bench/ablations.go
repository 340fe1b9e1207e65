package bench

import (
	"fmt"
	"strings"

	"gonamd/internal/baseline"
	"gonamd/internal/core"
	"gonamd/internal/ldb"
	"gonamd/internal/machine"
)

// AblationRow reports one configuration of the ablation study.
type AblationRow struct {
	Name  string
	Steps map[int]float64 // PEs → s/step
}

// Ablations quantifies each of the paper's design choices by turning it
// off individually on the ApoA-I benchmark: the three-stage load
// balancer (§3.2), grainsize splitting (§4.2.1), separated migratable
// bonded computes (§4.2.2), the optimized multicast (§4.2.3), and the
// centralized (vs distributed diffusion) balancing strategy (§2.2).
func Ablations(peCounts []int) ([]AblationRow, error) {
	w, err := ApoA1Workload()
	if err != nil {
		return nil, err
	}
	model := machine.ASCIRed()
	variants := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"full (paper config)", func(c *core.Config) {}},
		{"no load balancing", func(c *core.Config) { c.LB = ldb.NoOp{} }},
		{"no grainsize split", func(c *core.Config) { c.GrainSplit = false }},
		{"no self split", func(c *core.Config) { c.SplitSelf = false; c.GrainSplit = false }},
		{"pinned bonded computes", func(c *core.Config) { c.SplitBonded = false }},
		{"naive multicast", func(c *core.Config) { c.MulticastOpt = false }},
		{"diffusion LB", func(c *core.Config) { c.LB = &ldb.Diffusion{} }},
	}
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		row := AblationRow{Name: v.name, Steps: map[int]float64{}}
		for _, pes := range peCounts {
			cfg := StdConfig(model, pes)
			v.mut(&cfg)
			sim, err := core.NewSim(w, cfg)
			if err != nil {
				return nil, err
			}
			row.Steps[pes] = sim.Run().AvgStep
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatAblations renders the study with slowdowns relative to the full
// configuration.
func FormatAblations(rows []AblationRow, peCounts []int) string {
	var b strings.Builder
	b.WriteString("Ablation study: ApoA-I on ASCI-Red, ms/step (slowdown vs full config)\n")
	fmt.Fprintf(&b, "%-24s", "configuration")
	for _, pes := range peCounts {
		fmt.Fprintf(&b, "  %16d PEs", pes)
	}
	b.WriteByte('\n')
	full := rows[0]
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s", r.Name)
		for _, pes := range peCounts {
			slow := r.Steps[pes] / full.Steps[pes]
			fmt.Fprintf(&b, "  %10.2f (%4.2fx)", r.Steps[pes]*1e3, slow)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BaselineComparison renders the §3 decomposition-scalability argument
// using the ApoA-I reference counts on the ASCI-Red model.
func BaselineComparison() string {
	in := baseline.InputsFromCounts(machine.ReferenceCounts, machine.ASCIRed())
	return baseline.Format(in, []int{1, 8, 32, 128, 512, 2048})
}
