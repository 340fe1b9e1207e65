package par

import (
	"testing"

	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/trace"
)

// TestStepZeroAllocs guards the steady-state hot path: once the cluster
// list is built and the worker pool is up, a dynamics step — including
// list rebuilds, whose builder scratch, slot tables, and worker slot
// buffers are all reused — must not allocate. Regressions here (per-step
// goroutine spawns, touch list growth, rebuild scratch) show up as a
// nonzero count.
func TestStepZeroAllocs(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	e, err := New(sys, ff, st, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.RebalanceEvery = 0
	for i := 0; i < 10; i++ {
		e.Step(0.5)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(0.5) }); allocs != 0 {
		t.Fatalf("steady-state Step allocates: %v allocs/step, want 0", allocs)
	}
}

// TestStepZeroAllocsTraced guards the instrumentation: with a trace log
// attached, the steady-state step must still not allocate. The recorder
// pre-reserves its record slice and span arena, so per-step emission
// (per-worker phase records, reduce, integrate, step marker) reuses that
// capacity.
func TestStepZeroAllocsTraced(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	e, err := New(sys, ff, st, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.RebalanceEvery = 0
	l := trace.NewLog()
	e.SetTrace(l)
	for i := 0; i < 10; i++ {
		e.Step(0.5)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(0.5) }); allocs != 0 {
		t.Fatalf("traced steady-state Step allocates: %v allocs/step, want 0", allocs)
	}
	if len(l.Records) == 0 {
		t.Fatal("trace recorded nothing")
	}
}

// TestStepPMEZeroAllocsRealSpace guards the PME hot path: on steps that
// do not hit a reciprocal-evaluation boundary (the MTS period here is
// longer than the measured window), a full-electrostatics dynamics step
// runs entirely in the tabulated real-space kernel — its interaction
// table built once and shared read-only across workers — and must not
// allocate.
func TestStepPMEZeroAllocsRealSpace(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	e, err := New(sys, ff, st, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.RebalanceEvery = 0
	if err := EnableFullElectrostatics(e, 1.0, 0.45, 1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.Step(0.5)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(0.5) }); allocs != 0 {
		t.Fatalf("steady-state PME real-space Step allocates: %v allocs/step, want 0", allocs)
	}
}

// TestStepPMEZeroAllocsRecip covers what the test above steps around:
// with MTS period 1 every step runs the whole reciprocal sum — spline,
// spread, both 3D transforms, convolution, gather: ten pool regions — on
// the worker pool, and must not allocate either. The region functions
// are bound once (pme.Recip, fft.RealMesh3), not closed over per call.
func TestStepPMEZeroAllocsRecip(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	e, err := New(sys, ff, st, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.RebalanceEvery = 0
	if err := EnableFullElectrostatics(e, 1.0, 0.45, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.Step(0.5)
	}
	evals := e.RecipEvals()
	if allocs := testing.AllocsPerRun(20, func() { e.Step(0.5) }); allocs != 0 {
		t.Fatalf("steady-state PME Step with a reciprocal sum allocates: %v allocs/step, want 0", allocs)
	}
	if got := e.RecipEvals() - evals; got < 20 {
		t.Fatalf("measured window ran %d reciprocal evaluations, want one per step", got)
	}
}
