package engine

import (
	"reflect"
	"strings"
	"testing"

	"gonamd/internal/ckpt"
	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/thermo"
)

// TestRestoreContinuesBitwise: an engine restored from another's
// snapshot — taken mid-way through a PME MTS cycle and through a cluster
// list's lifetime, after a rebalancing pass and with a stateful
// thermostat — takes the same further steps, bit for bit, as the engine
// that was never interrupted, through later list rebuilds, and ends in an
// identical snapshot.
func TestRestoreContinuesBitwise(t *testing.T) {
	sys, st0, err := molgen.Build(molgen.WaterBox(14, 5))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(5.5)
	// Relaxed, the box keeps one list for tens of steps.
	buildEngine(t, sys, ff, st0, clusterConfig(1)).Minimize(30, 0.2)
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"w1-langevin", func() Config {
			c := clusterConfig(1)
			c.Thermostat = &thermo.Langevin{Target: 300, Gamma: 0.01, Seed: 3}
			return c
		}},
		{"w2-pme-mts3-rescale", func() Config {
			c := clusterConfig(2)
			c.RebalanceEvery = every(0)
			c.PME = &PMEConfig{GridSpacing: 1.0, MTSPeriod: 3}
			c.Thermostat = &thermo.Rescale{Target: 300, Interval: 4}
			return c
		}},
		{"w3-shake-berendsen", func() Config {
			c := clusterConfig(3)
			c.RebalanceEvery = every(0)
			c.HBondConstraints = true
			c.Thermostat = &thermo.Berendsen{Target: 300, Tau: 50}
			return c
		}},
		{"reference", func() Config { return Config{Workers: 1} }},
	}
	const before, after = 7, 30
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := buildEngine(t, sys, ff, st0.Clone(), tc.cfg())
			if a.workers > 1 {
				a.Run(2, 1)
				a.Rebalance() // a measured, non-static assignment
			}
			if _, err := a.Run(before-int(a.Steps()), 1); err != nil {
				t.Fatal(err)
			}
			snap := a.Snapshot()
			if a.clb != nil && reflect.DeepEqual(snap.Anchor, snap.Pos) {
				t.Fatal("the list was built at the snapshot step; pick another")
			}
			if a.pme != nil && snap.Counter == 0 {
				t.Fatal("the snapshot is at an MTS cycle boundary; pick another")
			}

			builds := a.ClusterRebuilds()
			b := buildEngine(t, sys, ff, st0.Clone(), tc.cfg())
			if err := b.Restore(snap); err != nil {
				t.Fatal(err)
			}
			// Mid-cycle, the energies and reciprocal forces are the cycle's.
			if !reflect.DeepEqual(a.Energies(), b.Energies()) || !reflect.DeepEqual(a.RecipForces(), b.RecipForces()) {
				t.Fatal("restored engine reports other energies or reciprocal forces")
			}
			for s := 0; s < after; s++ {
				if err := a.Step(1); err != nil {
					t.Fatal(err)
				}
				if err := b.Step(1); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.St, b.St) {
					t.Fatalf("restored engine diverged %d steps after the snapshot", s+1)
				}
			}
			if a.clb != nil && a.ClusterRebuilds() == builds {
				t.Error("no list rebuild after the snapshot: the continuation only replayed")
			}
			if !reflect.DeepEqual(a.Energies(), b.Energies()) {
				t.Errorf("energies differ: %+v vs %+v", a.Energies(), b.Energies())
			}
			if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
				t.Error("snapshots differ after the continuation")
			}
		})
	}
}

// TestRestoreRejectsMismatch: a snapshot that does not fit the engine is
// an error naming the mismatch, and leaves the engine untouched.
func TestRestoreRejectsMismatch(t *testing.T) {
	sys, st0, err := molgen.Build(molgen.WaterBox(14, 5))
	if err != nil {
		t.Fatal(err)
	}
	other, ost, err := molgen.Build(molgen.WaterBox(16, 5))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(5.5)
	langevin := func() Config {
		c := clusterConfig(2)
		c.Thermostat = &thermo.Langevin{Target: 300, Seed: 1}
		return c
	}
	pme := func() Config {
		c := clusterConfig(1)
		c.PME = &PMEConfig{GridSpacing: 1.0, MTSPeriod: 2}
		return c
	}
	snapOf := func(cfg Config) func() *ckpt.EngineState {
		return func() *ckpt.EngineState {
			e := buildEngine(t, sys, ff, st0.Clone(), cfg)
			e.Run(3, 1)
			return e.Snapshot()
		}
	}
	cases := []struct {
		name   string
		target Config
		snap   func() *ckpt.EngineState
		mut    func(*ckpt.EngineState)
		want   string
	}{
		{"atoms", langevin(), func() *ckpt.EngineState {
			e := buildEngine(t, other, ff, ost.Clone(), langevin())
			return e.Snapshot()
		}, nil, "atoms"},
		{"no anchor", langevin(), snapOf(langevin()), func(s *ckpt.EngineState) { s.Anchor = nil }, "no list anchor"},
		{"anchor on reference", Config{Workers: 1}, snapOf(clusterConfig(1)), nil, "list anchor"},
		{"tasks", langevin(), snapOf(langevin()), func(s *ckpt.EngineState) { s.Assign = s.Assign[1:] }, "tasks"},
		{"worker", langevin(), snapOf(langevin()), func(s *ckpt.EngineState) { s.Assign[0] = 2 }, "worker 2 of 2"},
		{"mts phase", pme(), snapOf(pme()), func(s *ckpt.EngineState) { s.Counter = 2 }, "MTS period is 2"},
		{"pme into cutoff", clusterConfig(1), snapOf(pme()), nil, "no PME"},
		{"thermostat kind", func() Config {
			c := langevin()
			c.Thermostat = &thermo.Berendsen{Target: 300}
			return c
		}(), snapOf(langevin()), nil, `"langevin"`},
		{"no thermostat", langevin(), snapOf(clusterConfig(2)), nil, "thermostat"},
		{"corrupt", langevin(), snapOf(langevin()), func(s *ckpt.EngineState) { s.Step = -1 }, "step -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := tc.snap()
			if tc.mut != nil {
				tc.mut(snap)
			}
			e := buildEngine(t, sys, ff, st0.Clone(), tc.target)
			e.Run(1, 1)
			want := e.Snapshot()
			err := e.Restore(snap)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want an error containing %q", err, tc.want)
			}
			if !reflect.DeepEqual(e.Snapshot(), want) {
				t.Error("a refused snapshot changed the engine")
			}
		})
	}
}
