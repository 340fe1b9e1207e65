package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/seq"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

// TestClusterKernelFollowsElectrostatics: nobody chooses the kernel — the
// engine evaluates the tabulated kernel exactly when full electrostatics
// are on.
func TestClusterKernelFollowsElectrostatics(t *testing.T) {
	sys, st, ff := smallSystem(t)
	for _, workers := range []int{1, 2} {
		eng := clusterEngine(t, sys, ff, st.Clone(), workers)
		if eng.clb.kernel.Tabulated() {
			t.Errorf("%d workers: shifted-cutoff engine selected the tabulated kernel", workers)
		}
		cfg := clusterConfig(workers)
		cfg.PME = &PMEConfig{GridSpacing: 1.0, Beta: 0.3, MTSPeriod: 1}
		eng = buildEngine(t, sys, ff, st.Clone(), cfg)
		if !eng.clb.kernel.Tabulated() {
			t.Errorf("%d workers: engine with PME did not select the tabulated kernel", workers)
		}
		eng.ComputeForces() // the table must match the Ewald force field (checkParams panics otherwise)
	}
}

// TestClusterListRebuildOnMotion: the list is reused until an atom moves
// past skin/2, and Restore builds the snapshot's list once, which then
// stays valid.
// External position edits go through Invalidate, which also voids the
// drift bound so the displacement scan actually runs.
func TestClusterListRebuildOnMotion(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			sys, st, ff := smallSystem(t)
			eng := clusterEngine(t, sys, ff, st, workers)
			want := 0
			check := func(what string, rebuild bool) {
				t.Helper()
				eng.Invalidate()
				eng.ComputeForces()
				if rebuild {
					want++
				}
				if got := eng.ClusterRebuilds(); got != want {
					t.Fatalf("%s: %d builds, want %d", what, got, want)
				}
			}
			check("first evaluation", true)
			check("no motion", false)
			st.Pos[0] = vec.Wrap(st.Pos[0].Add(vec.New(seq.DefaultClusterSkin/2+0.05, 0, 0)), sys.Box)
			check("one atom past skin/2", true)
			if err := eng.Restore(eng.Snapshot()); err != nil {
				t.Fatal(err)
			}
			want++ // Restore replays the list at its anchor, the current positions
			check("after Restore", false)
		})
	}
}

func TestNewRejectsBadClusterGeometry(t *testing.T) {
	sys, st, ff := smallSystem(t)
	for _, mn := range [][2]int{{9, 9}, {4, 0}, {-1, 4}} {
		if _, err := New(sys, ff, st, Config{Workers: 2, ClusterM: mn[0], ClusterN: mn[1]}); err == nil {
			t.Errorf("cluster geometry %dx%d accepted", mn[0], mn[1])
		}
	}
}

// hotWater is the dual list's engine-level system: 801 atoms of water
// at 300 K in a 20 Å box, briefly minimized so 1 fs steps stay stable,
// with a 7 Å cutoff.
func hotWater(t *testing.T) (*topology.System, *topology.State, *forcefield.Params) {
	t.Helper()
	sys, st, err := molgen.Build(molgen.WaterBox(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 801 {
		t.Fatalf("water box has %d atoms, want 801", sys.N())
	}
	ff := forcefield.Standard(7.0)
	buildEngine(t, sys, ff, st, clusterConfig(1)).Minimize(20, 0.2)
	return sys, st, ff
}

// taskSweeps checks, for every cluster task of the last evaluation, that
// the kernel over the inner view gives the bits of the kernel over the
// whole outer list — the sweep an engine without the inner view would
// run — and, for the analytic kernel, of the reference kernel. The
// inner view is the one the evaluation walked (or, on a prune step,
// wrote). It returns the first difference.
func taskSweeps(e *Engine, buf *[6][]float64) error {
	c := e.clb
	ref := c.kernel
	ref.UseReference(true)
	n := c.list.Slots()
	for k := range buf {
		if cap(buf[k]) < n+8 {
			buf[k] = make([]float64, n, n+8)
		}
		buf[k] = buf[k][:n]
	}
	for ti := range e.tasks {
		t := &e.tasks[ti]
		if t.kind != taskCluster || t.lo == t.hi {
			continue
		}
		ics := c.clOrder[t.lo:t.hi]
		for k := range buf {
			clear(buf[k])
		}
		var in, out [3]float64
		in[0], in[1], in[2] = c.kernel.Eval(e.FF, c.list, &c.data, ics, forcefield.SweepInner, buf[0], buf[1], buf[2])
		if c.kernel.Tabulated() {
			out[0], out[1], out[2] = c.kernel.Eval(e.FF, c.list, &c.data, ics, forcefield.SweepOuter, buf[3], buf[4], buf[5])
		} else {
			out[0], out[1], out[2] = ref.Eval(e.FF, c.list, &c.data, ics, forcefield.SweepOuter, buf[3], buf[4], buf[5])
		}
		if in != out {
			return fmt.Errorf("cell %d: inner-view energies/virial %v, outer sweep %v", t.cell, in, out)
		}
		for k := 0; k < 3; k++ {
			for s := range buf[k] {
				if math.Float64bits(buf[k][s]) != math.Float64bits(buf[k+3][s]) {
					return fmt.Errorf("cell %d: slot %d force component %d: inner view %g, outer sweep %g", t.cell, s, k, buf[k][s], buf[k+3][s])
				}
			}
		}
	}
	return nil
}

// TestDualListBitwise is the dual pair list's engine-level guard: 300
// steps of 1 fs on hot water, shifted cutoff and PME, at 1, 2 and 4
// workers with rebalancing on. After every step each cluster task's
// inner-view sweep must give the bits of the outer-list sweep (the
// reference kernel's under the shifted cutoff, the tabulated kernel's
// own under PME), and under the shifted cutoff the engine's forces and
// energies must be bitwise those of the same evaluation on the reference
// kernel. The run must re-prune between rebuilds.
func TestDualListBitwise(t *testing.T) {
	sys, st0, ff := hotWater(t)
	const steps, dt = 300, 1.0
	for _, pme := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("pme=%v/w%d", pme, workers), func(t *testing.T) {
				cfg := clusterConfig(workers)
				cfg.RebalanceEvery = every(10)
				if pme {
					cfg.PME = &PMEConfig{GridSpacing: 1.0, MTSPeriod: 2}
				}
				e := buildEngine(t, sys, ff, st0.Clone(), cfg)
				var buf [6][]float64
				innerSteps := 0
				used := make([]int, len(e.assign))
				for s := 1; s <= steps; s++ {
					prunes := e.clb.prune.Builds
					copy(used, e.assign) // the step's evaluation runs before its rebalance
					if err := e.Step(dt); err != nil {
						t.Fatal(err)
					}
					if e.clb.prune.Builds == prunes {
						innerSteps++
					}
					if err := taskSweeps(e, &buf); err != nil {
						t.Fatalf("step %d: %v", s, err)
					}
					if pme {
						continue
					}
					// The same evaluation on the reference kernel, under the
					// assignment the step evaluated with; then the step's own
					// evaluation again, so the run goes on from its own forces.
					prod, en := append([]vec.V3(nil), e.forces...), e.cur
					next := append([]int(nil), e.assign...)
					copy(e.assign, used)
					e.clb.kernel.UseReference(true)
					e.ComputeForces()
					if !reflect.DeepEqual(prod, e.forces) || e.cur != en {
						t.Fatalf("step %d: production forces/energies differ from the reference kernel's", s)
					}
					e.clb.kernel.UseReference(false)
					e.ComputeForces()
					if !reflect.DeepEqual(prod, e.forces) || e.cur != en {
						t.Fatalf("step %d: re-evaluating the step's positions changed its forces", s)
					}
					copy(e.assign, next)
				}
				builds, prunes := e.ClusterRebuilds(), e.clb.prune.Builds
				t.Logf("%d steps: %d list builds, %d inner views (%d re-prunes), %d inner-view steps", steps, builds, prunes, prunes-builds, innerSteps)
				if builds < 2 || prunes-builds < 2*builds || innerSteps < steps/2 {
					t.Fatalf("%d builds, %d re-prunes, %d inner-view steps: the run did not exercise the inner view between prunes", builds, prunes-builds, innerSteps)
				}
			})
		}
	}
}

// TestDualListRestoreMidInterval: a snapshot taken between two prunes,
// long after the list was built, restored into an engine whose own inner
// view is fresh, continues bitwise: Restore rebuilds the list at the
// anchor, and the inner view it emits there is stale at the snapshot's
// positions, so Restore must mark it so.
func TestDualListRestoreMidInterval(t *testing.T) {
	sys, st0, ff := hotWater(t)
	const dt = 1.0
	for _, pme := range []bool{false, true} {
		t.Run(fmt.Sprintf("pme=%v", pme), func(t *testing.T) {
			cfg := clusterConfig(2)
			cfg.RebalanceEvery = every(0)
			if pme {
				cfg.PME = &PMEConfig{GridSpacing: 1.0, MTSPeriod: 2}
			}
			a := buildEngine(t, sys, ff, st0.Clone(), cfg)
			// Step until the list is old (two re-prunes since its build)
			// and the last step did not prune.
			for s := 0; ; s++ {
				if s == 400 {
					t.Fatal("no mid-interval step in 400")
				}
				builds, prunes := a.ClusterRebuilds(), a.clb.prune.Builds
				if err := a.Step(dt); err != nil {
					t.Fatal(err)
				}
				if a.ClusterRebuilds() == builds && a.clb.prune.Builds == prunes && prunes-a.clb.guard.Builds >= 2 {
					break
				}
			}
			snap := a.Snapshot()

			b := buildEngine(t, sys, ff, st0.Clone(), cfg)
			if err := b.Step(dt); err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(snap); err != nil {
				t.Fatal(err)
			}
			for s := 1; s <= 60; s++ {
				if err := a.Step(dt); err != nil {
					t.Fatal(err)
				}
				if err := b.Step(dt); err != nil {
					t.Fatal(err)
				}
				if a.cur != b.cur || !reflect.DeepEqual(a.forces, b.forces) {
					t.Fatalf("step %d after Restore: forces/energies differ from the uninterrupted run's", s)
				}
			}
			if !reflect.DeepEqual(a.St.Pos, b.St.Pos) || !reflect.DeepEqual(a.St.Vel, b.St.Vel) {
				t.Fatal("restored run's state differs from the uninterrupted run's")
			}
		})
	}
}
