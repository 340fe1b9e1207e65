package gonamd_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"gonamd"
)

// confSystem builds one small shared water box for the conformance
// suite (construction-only tests reuse it; stepping tests copy state).
var confOnce struct {
	sync.Once
	sys *gonamd.System
	st  *gonamd.State
	ff  *gonamd.ForceField
}

func confSetup(t *testing.T) (*gonamd.System, *gonamd.State, *gonamd.ForceField) {
	t.Helper()
	confOnce.Do(func() {
		sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(14, 7))
		if err != nil {
			panic(err)
		}
		confOnce.sys, confOnce.st, confOnce.ff = sys, st, gonamd.StandardForceField(6.0)
	})
	return confOnce.sys, confOnce.st, confOnce.ff
}

func cloneState(st *gonamd.State) *gonamd.State {
	c := &gonamd.State{
		Pos: append([]gonamd.V3(nil), st.Pos...),
		Vel: append([]gonamd.V3(nil), st.Vel...),
	}
	return c
}

// runSteps advances n steps and returns the final positions.
func runSteps(e gonamd.Engine, n int) []gonamd.V3 {
	for i := 0; i < n; i++ {
		e.Step(0.5)
	}
	return e.State().Pos
}

// TestEngineInterface checks both engines drive identically through the
// Engine interface: construction, stepping, accessors.
func TestEngineInterface(t *testing.T) {
	sys, st, ff := confSetup(t)
	mk := []struct {
		name  string
		build func(st *gonamd.State) (gonamd.Engine, error)
	}{
		{"sequential", func(st *gonamd.State) (gonamd.Engine, error) {
			return gonamd.NewSequential(sys, ff, st, gonamd.WithClusterLists(4, 8))
		}},
		{"parallel", func(st *gonamd.State) (gonamd.Engine, error) {
			return gonamd.NewParallel(sys, ff, st, 4)
		}},
	}
	for _, m := range mk {
		t.Run(m.name, func(t *testing.T) {
			s := cloneState(st)
			e, err := m.build(s)
			if err != nil {
				t.Fatal(err)
			}
			if e.System() != sys || e.State() != s {
				t.Error("System()/State() accessors do not return the constructor arguments")
			}
			en := e.Run(3, 0.5)
			if math.IsNaN(en.Total()) {
				t.Errorf("energies NaN after 3 steps: %v", en)
			}
			if got := len(e.Forces()); got != sys.N() {
				t.Errorf("Forces() length %d, want %d", got, sys.N())
			}
			e.Invalidate() // must not panic and must leave the engine usable
			if k := e.Kinetic(); k < 0 || math.IsNaN(k) {
				t.Errorf("Kinetic() = %g", k)
			}
		})
	}
}

// TestOptionsOrderIndependent: any permutation of the same options
// yields a bitwise-identical trajectory.
func TestOptionsOrderIndependent(t *testing.T) {
	sys, st, ff := confSetup(t)
	build := func(opts ...gonamd.Option) []gonamd.V3 {
		s := cloneState(st)
		e, err := gonamd.NewParallel(sys, ff, s, 4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		e.RebalanceEvery = 0
		return runSteps(e, 5)
	}
	a := build(gonamd.WithPME(1.0, 0, 2), gonamd.WithClusterLists(4, 4), gonamd.WithRebalanceEvery(0))
	b := build(gonamd.WithRebalanceEvery(0), gonamd.WithClusterLists(4, 4), gonamd.WithPME(1.0, 0, 2))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("atom %d positions differ between option orders: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPMEAutoBetaMatchesExplicit: WithPME's auto-derived Ewald splitting
// parameter (beta 0 → 3.12/cutoff) is bitwise identical to passing the
// same value explicitly, for both engines. (This pins the configuration
// cross-check the deleted post-construction Enable* mutators used to
// provide: two independently configured engines must agree exactly.)
func TestPMEAutoBetaMatchesExplicit(t *testing.T) {
	sys, st, ff := confSetup(t)

	t.Run("sequential", func(t *testing.T) {
		s1 := cloneState(st)
		auto, err := gonamd.NewSequential(sys, ff, s1, gonamd.WithClusterLists(4, 8), gonamd.WithPME(1.0, 0, 2))
		if err != nil {
			t.Fatal(err)
		}
		s2 := cloneState(st)
		explicit, err := gonamd.NewSequential(sys, ff, s2,
			gonamd.WithClusterLists(4, 8), gonamd.WithPME(1.0, 3.12/ff.Cutoff, 2))
		if err != nil {
			t.Fatal(err)
		}
		a, b := runSteps(auto, 5), runSteps(explicit, 5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("atom %d: auto beta %v != explicit beta %v", i, a[i], b[i])
			}
		}
	})

	t.Run("parallel", func(t *testing.T) {
		s1 := cloneState(st)
		auto, err := gonamd.NewParallel(sys, ff, s1, 4,
			gonamd.WithPME(1.0, 0, 2), gonamd.WithRebalanceEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		s2 := cloneState(st)
		explicit, err := gonamd.NewParallel(sys, ff, s2, 4,
			gonamd.WithPME(1.0, 3.12/ff.Cutoff, 2), gonamd.WithRebalanceEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		a, b := runSteps(auto, 5), runSteps(explicit, 5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("atom %d: auto beta %v != explicit beta %v", i, a[i], b[i])
			}
		}
	})
}

// TestTabulatedKernelsOptionIsNoOp: the deprecated option changes no
// engine state — with or without it a configuration follows bitwise the
// same trajectory, analytic under the shifted cutoff and tabulated under
// PME, whatever spacing it names.
func TestTabulatedKernelsOptionIsNoOp(t *testing.T) {
	sys, st, ff := confSetup(t)
	for _, base := range [][]gonamd.Option{
		{gonamd.WithClusterLists(4, 8)},
		{gonamd.WithClusterLists(4, 8), gonamd.WithPME(1.0, 0, 1)},
	} {
		run := func(opts ...gonamd.Option) []gonamd.V3 {
			e, err := gonamd.NewSequential(sys, ff, cloneState(st), append(opts, base...)...)
			if err != nil {
				t.Fatal(err)
			}
			return runSteps(e, 5)
		}
		a, b := run(), run(gonamd.WithTabulatedKernels(0.01))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("atom %d: WithTabulatedKernels changed the trajectory: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

// TestTraceMatchesUntraced: attaching a trace must not perturb the
// trajectory — instrumentation only observes.
func TestTraceMatchesUntraced(t *testing.T) {
	sys, st, ff := confSetup(t)
	s1 := cloneState(st)
	plain, err := gonamd.NewParallel(sys, ff, s1, 4, gonamd.WithRebalanceEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	s2 := cloneState(st)
	tlog := gonamd.NewTraceLog()
	traced, err := gonamd.NewParallel(sys, ff, s2, 4,
		gonamd.WithRebalanceEvery(0), gonamd.WithTrace(tlog))
	if err != nil {
		t.Fatal(err)
	}
	a, b := runSteps(plain, 5), runSteps(traced, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("atom %d: tracing changed the trajectory: %v vs %v", i, a[i], b[i])
		}
	}
	if len(tlog.Records) == 0 {
		t.Fatal("traced engine emitted no records")
	}
	rep := gonamd.AnalyzeTrace(tlog, gonamd.ProjectionsOptions{})
	sum := 0.0
	for _, c := range rep.Categories {
		sum += c.Seconds
	}
	if sum != rep.BusySeconds {
		t.Errorf("engine trace violates exact-sum invariant: %g vs %g", sum, rep.BusySeconds)
	}
	if rep.Steps == nil || rep.Steps.N != 5 {
		t.Errorf("step markers: got %+v, want 5 steps", rep.Steps)
	}
}

// TestOptionValidation: every misuse is rejected at construction with a
// descriptive error, not a panic.
func TestOptionValidation(t *testing.T) {
	sys, st, ff := confSetup(t)
	cases := []struct {
		name string
		err  string
		run  func() error
	}{
		{"cluster geometry too wide", "out of range", func() error {
			_, err := gonamd.NewSequential(sys, ff, cloneState(st), gonamd.WithClusterLists(9, 9))
			return err
		}},
		{"zero cluster width", "out of range", func() error {
			_, err := gonamd.NewParallel(sys, ff, cloneState(st), 2, gonamd.WithClusterLists(4, 0))
			return err
		}},
		{"negative table spacing", "must be ≥ 0", func() error {
			_, err := gonamd.NewSequential(sys, ff, cloneState(st), gonamd.WithTabulatedKernels(-1))
			return err
		}},
		{"zero PME grid", "must be positive", func() error {
			_, err := gonamd.NewSequential(sys, ff, cloneState(st), gonamd.WithPME(0, 0, 1))
			return err
		}},
		{"zero MTS period", "must be ≥ 1", func() error {
			_, err := gonamd.NewSequential(sys, ff, cloneState(st), gonamd.WithPME(1.0, 0, 0))
			return err
		}},
		{"shake with PME", "cannot be combined", func() error {
			_, err := gonamd.NewSequential(sys, ff, cloneState(st),
				gonamd.WithHBondConstraints(), gonamd.WithPME(1.0, 0, 4))
			return err
		}},
		{"rebalance on sequential", "parallel engine", func() error {
			_, err := gonamd.NewSequential(sys, ff, cloneState(st), gonamd.WithRebalanceEvery(10))
			return err
		}},
		{"negative rebalance", "must be ≥ 0", func() error {
			_, err := gonamd.NewParallel(sys, ff, cloneState(st), 2, gonamd.WithRebalanceEvery(-1))
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.run()
			if err == nil {
				t.Fatal("construction succeeded, want error")
			}
			if !strings.Contains(err.Error(), c.err) {
				t.Errorf("error %q does not mention %q", err, c.err)
			}
		})
	}
}

// TestHBondConstraintsOption: the option builds and attaches constraints
// retrievable from the engine, at one worker and on a pool, and the
// engine takes constrained steps with them.
func TestHBondConstraintsOption(t *testing.T) {
	sys, st, ff := confSetup(t)
	for _, w := range []int{1, 2} {
		e, err := gonamd.NewParallel(sys, ff, cloneState(st), w, gonamd.WithHBondConstraints())
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		c := e.Constraints()
		if c == nil || c.Count() == 0 {
			t.Fatalf("workers=%d: constraints not attached (got %v)", w, c)
		}
		for i := 0; i < 5; i++ {
			if err := e.StepConstrained(2.0, c); err != nil {
				t.Fatalf("workers=%d: constrained step: %v", w, err)
			}
		}
		e.Close()
	}
}
