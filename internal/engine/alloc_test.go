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
// tables, and worker slot buffers are all reused — must not allocate.
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
func TestStepZeroAllocs(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	for _, workers := range []int{1, 2} {
		for _, mode := range []string{"plain", "traced", "metered", "pme-realspace", "pme-recip"} {
			t.Run(fmt.Sprintf("w%d/%s", workers, mode), func(t *testing.T) {
				e := clusterEngine(t, sys, ff, st.Clone(), workers)
				e.RebalanceEvery = 0
				tlog := trace.NewLog()
				rec := ftdc.NewEngineRecorder(0)
				var err error
				switch mode {
				case "traced":
					e.SetTrace(tlog)
				case "metered":
					e.SetMetrics(rec)
				case "pme-realspace":
					err = EnableFullElectrostatics(e, 1.0, 0.45, 1000)
				case "pme-recip":
					err = EnableFullElectrostatics(e, 1.0, 0.45, 1)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 10; i++ {
					e.Step(0.5)
				}
				evals := e.RecipEvals()
				if allocs := testing.AllocsPerRun(20, func() { e.Step(0.5) }); allocs != 0 {
					t.Fatalf("steady-state Step allocates: %v allocs/step, want 0", allocs)
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
