package gonamd_test

import (
	"testing"

	"gonamd"
)

// stepsField is the index of the cumulative step counter in the
// engine telemetry schema.
func stepsField() int { return gonamd.EngineMetricsSchema().FieldIndex("steps") }

// metricsAllocSystem builds the same ~12k-atom box the par engine's
// zero-alloc suite uses, through the public facade.
func metricsAllocSystem(t *testing.T) (*gonamd.System, *gonamd.State, *gonamd.ForceField) {
	t.Helper()
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	return sys, st, gonamd.StandardForceField(7.0)
}

// TestStepZeroAllocsMetrics guards the telemetry overhead contract:
// with a metrics recorder attached (manual sampling, so the measurement
// is deterministic), the parallel engine's steady-state step must stay
// at 0 allocs, and the sequential engine must allocate no more than it
// does unmetered. Publication is a handful of atomic word stores per
// step — nothing on the heap.
func TestStepZeroAllocsMetrics(t *testing.T) {
	sys, st, ff := metricsAllocSystem(t)

	rec := gonamd.NewMetricsRecorder(0)
	par, err := gonamd.NewParallel(sys, ff, cloneState(st), 8,
		gonamd.WithRebalanceEvery(0),
		gonamd.WithMetricsRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		par.Step(0.5)
	}
	if allocs := testing.AllocsPerRun(20, func() { par.Step(0.5) }); allocs != 0 {
		t.Fatalf("metered parallel Step allocates: %v allocs/step, want 0", allocs)
	}
	rec.SampleNow()
	last, ok := rec.Last()
	if !ok || last.Values[stepsField()] <= 0 {
		t.Fatalf("recorder sample after stepping: ok=%v values=%v, want steps > 0", ok, last.Values)
	}

	base, err := gonamd.NewSequential(sys, ff, cloneState(st), gonamd.WithClusterLists(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		base.Step(0.5)
	}
	baseAllocs := testing.AllocsPerRun(20, func() { base.Step(0.5) })

	rec2 := gonamd.NewMetricsRecorder(0)
	met, err := gonamd.NewSequential(sys, ff, cloneState(st), gonamd.WithClusterLists(4, 8),
		gonamd.WithMetricsRecorder(rec2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		met.Step(0.5)
	}
	if metAllocs := testing.AllocsPerRun(20, func() { met.Step(0.5) }); metAllocs > baseAllocs {
		t.Fatalf("metered sequential Step allocates %v/step, unmetered %v/step — metering must add nothing",
			metAllocs, baseAllocs)
	}
}

// TestMetricsMatchesUnmetered: attaching a metrics recorder must not
// perturb the trajectory — telemetry only observes. Both engines,
// bitwise position compare against an unmetered twin.
func TestMetricsMatchesUnmetered(t *testing.T) {
	sys, st, ff := confSetup(t)

	t.Run("parallel", func(t *testing.T) {
		plain, err := gonamd.NewParallel(sys, ff, cloneState(st), 4,
			gonamd.WithRebalanceEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		rec := gonamd.NewMetricsRecorder(0)
		metered, err := gonamd.NewParallel(sys, ff, cloneState(st), 4,
			gonamd.WithRebalanceEvery(0),
			gonamd.WithMetricsRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		a, b := runSteps(plain, 5), runSteps(metered, 5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("atom %d: metering changed the trajectory: %v vs %v", i, a[i], b[i])
			}
		}
		rec.SampleNow()
		last, ok := rec.Last()
		if !ok || last.Values[stepsField()] != 5 {
			t.Fatalf("recorder after 5 steps: ok=%v steps=%v, want 5", ok, last.Values)
		}
	})

	t.Run("sequential", func(t *testing.T) {
		plain, err := gonamd.NewSequential(sys, ff, cloneState(st), gonamd.WithClusterLists(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		rec := gonamd.NewMetricsRecorder(0)
		metered, err := gonamd.NewSequential(sys, ff, cloneState(st), gonamd.WithClusterLists(4, 8),
			gonamd.WithMetricsRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		a, b := runSteps(plain, 5), runSteps(metered, 5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("atom %d: metering changed the trajectory: %v vs %v", i, a[i], b[i])
			}
		}
		rec.SampleNow()
		last, ok := rec.Last()
		if !ok || last.Values[stepsField()] != 5 {
			t.Fatalf("recorder after 5 steps: ok=%v steps=%v, want 5", ok, last.Values)
		}
	})
}

// TestMetricsWithTrace: metrics and a full trace log compose — the
// trace keeps its records, the recorder its phase times, and the two
// report consistent nonbonded totals (the phase accumulators feed both).
func TestMetricsWithTrace(t *testing.T) {
	sys, st, ff := confSetup(t)
	rec := gonamd.NewMetricsRecorder(0)
	tlog := gonamd.NewTraceLog()
	e, err := gonamd.NewParallel(sys, ff, cloneState(st), 4,
		gonamd.WithRebalanceEvery(0),
		gonamd.WithTrace(tlog), gonamd.WithMetricsRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	runSteps(e, 5)
	if len(tlog.Records) == 0 {
		t.Fatal("trace recorded nothing with metrics attached")
	}
	rec.SampleNow()
	last, ok := rec.Last()
	if !ok {
		t.Fatal("no metrics sample")
	}
	if nb := last.Values[gonamd.EngineMetricsSchema().FieldIndex("nonbonded_s")]; nb <= 0 {
		t.Errorf("nonbonded phase time %g, want > 0 (phase accumulators must feed the recorder)", nb)
	}
}
