package engine

import (
	"fmt"
	"testing"

	"gonamd/internal/forcefield"
	"gonamd/internal/ftdc"
	"gonamd/internal/molgen"
	"gonamd/internal/trace"
)

// TestStepZeroAllocs guards the steady-state hot path, inline and pooled:
// once the cluster list is built (and, past one worker, the pool is up),
// a dynamics step — including list rebuilds, whose builder scratch, slot
// tables, and worker slot buffers are all reused, and re-prunes of the
// inner view, which the window must contain — must not allocate.
// Regressions here (per-step goroutine spawns, slot buffer growth, rebuild
// scratch, an interface boxed per phase) show up as a nonzero count.
//
//   - traced: the recorder pre-reserves its record slice and span arena,
//     so per-step emission (per-worker phase records, reduce, integrate,
//     step marker) reuses that capacity.
//   - metered: publication is a handful of atomic word stores.
//   - pme-realspace: the MTS period is longer than the measured window,
//     so the step runs entirely in the tabulated real-space kernel, its
//     interaction table built once and shared read-only across workers.
//   - pme-recip: with MTS period 1 every step runs the whole reciprocal
//     sum — spline, spread, both 3D transforms, convolution, gather: ten
//     pool regions — whose region functions are bound once (pme.Recip,
//     fft.RealMesh3), not closed over per call.
//   - shake: SHAKE and RATTLE stages in the same Step; the pre-drift
//     position copy reuses its buffer.
func TestStepZeroAllocs(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	for _, workers := range []int{1, 2} {
		for _, mode := range []string{"plain", "traced", "metered", "pme-realspace", "pme-recip", "shake"} {
			t.Run(fmt.Sprintf("w%d/%s", workers, mode), func(t *testing.T) {
				cfg := clusterConfig(workers)
				cfg.RebalanceEvery = every(0)
				tlog := trace.NewLog()
				rec := ftdc.NewEngineRecorder(0)
				switch mode {
				case "traced":
					cfg.Trace = tlog
				case "metered":
					cfg.Metrics = rec
				case "pme-realspace":
					cfg.PME = &PMEConfig{GridSpacing: 1.0, Beta: 0.45, MTSPeriod: 1000}
				case "pme-recip":
					cfg.PME = &PMEConfig{GridSpacing: 1.0, Beta: 0.45, MTSPeriod: 1}
				case "shake":
					cfg.HBondConstraints = true
				}
				e := buildEngine(t, sys, ff, st.Clone(), cfg)
				var err error
				step := func() {
					if err == nil {
						err = e.Step(0.5)
					}
				}
				for i := 0; i < 10; i++ {
					step()
				}
				evals := e.RecipEvals()
				prunes := e.clb.prune.Builds - e.clb.guard.Builds
				if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
					t.Fatalf("steady-state Step allocates: %v allocs/step, want 0", allocs)
				}
				if e.clb.prune.Builds-e.clb.guard.Builds == prunes {
					t.Fatal("the measured window re-pruned no inner view")
				}
				if err != nil {
					t.Fatal(err)
				}
				switch mode {
				case "traced":
					if len(tlog.Records) == 0 {
						t.Fatal("trace recorded nothing")
					}
				case "metered":
					rec.SampleNow()
					if last, ok := rec.Last(); !ok || last.Values[ftdc.FieldSteps] < 30 {
						t.Fatalf("recorder sample after stepping: ok=%v values=%v, want steps ≥ 30", ok, last.Values)
					}
				case "pme-recip":
					if got := e.RecipEvals() - evals; got < 20 {
						t.Fatalf("measured window ran %d reciprocal evaluations, want one per step", got)
					}
				}
			})
		}
	}
}
