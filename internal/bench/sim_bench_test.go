package bench

import (
	"testing"

	"gonamd/internal/core"
	"gonamd/internal/machine"
	"gonamd/internal/molgen"
	"gonamd/internal/spatial"
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

// BenchmarkBuildWorkload times the exact pair census of the ApoA-I and
// BC1 systems, the set-up every DES user pays once per system (the
// repository benchmark's core.workload_build_s). The systems are built
// outside the timer.
func BenchmarkBuildWorkload(b *testing.B) {
	for _, c := range []struct {
		name string
		spec molgen.Spec
	}{{"apoa1", molgen.ApoA1()}, {"bc1", molgen.BC1()}} {
		b.Run(c.name, func(b *testing.B) {
			spec := c.spec
			spec.Temperature = 0
			sys, st, err := molgen.Build(spec)
			if err != nil {
				b.Fatal(err)
			}
			grid, err := spatial.NewGridDims(spec.Box, spec.PatchDims, molgen.Cutoff)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildWorkload(spec.Name, sys, st, grid, molgen.Cutoff, ListDist); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
