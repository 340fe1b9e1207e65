package bench

import (
	"testing"

	"gonamd/internal/core"
	"gonamd/internal/machine"
)

// BenchmarkSimApoA1 times whole cluster simulations of the ApoA-I
// workload — NewSim plus Run, as the repository benchmark's des-scale
// workload times them — on its short timing schedule (1 warm-up, 1
// refinement and 2 measured steps, both balancing passes), so the DES
// can be A/B'd on its own. The workload is built once, outside the timer.
func BenchmarkSimApoA1(b *testing.B) {
	w, err := ApoA1Workload()
	if err != nil {
		b.Fatal(err)
	}
	model := machine.ASCIRed()
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"std-1", StdConfig(model, 1)},
		{"std-1024", StdConfig(model, 1024)},
		{"hier+tree-1024", ScaleConfig(model, 1024)},
	} {
		cfg := c.cfg
		cfg.WarmSteps, cfg.RefineSteps, cfg.MeasureSteps = 1, 1, 2
		steps := float64(cfg.WarmSteps + cfg.RefineSteps + cfg.MeasureSteps + 1)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			msgs := 0
			for i := 0; i < b.N; i++ {
				sim, err := core.NewSim(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				msgs = sim.Run().TotalMsgs
			}
			b.ReportMetric(steps*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
			b.ReportMetric(float64(msgs), "msgs/op")
		})
	}
}
