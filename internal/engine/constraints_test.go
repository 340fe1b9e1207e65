package engine

import (
	"math"
	"testing"

	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

// constrainedWaterSetup returns a minimized water box in the reference
// mode under SHAKE/RATTLE.
func constrainedWaterSetup(t *testing.T) *Engine {
	t.Helper()
	sys, st, err := molgen.Build(molgen.WaterBox(14, 44))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(6.0)
	eng := buildEngine(t, sys, ff, st, Config{Workers: 1, HBondConstraints: true})
	eng.Minimize(150, 0.2)
	// Every water O-H bond is constrained.
	if n := len(eng.cons.pairs); n != len(sys.Bonds) {
		t.Fatalf("constraints = %d, bonds = %d", n, len(sys.Bonds))
	}
	return eng
}

func TestShakeHoldsBondLengths(t *testing.T) {
	eng := constrainedWaterSetup(t)
	ff := eng.FF
	for s := 0; s < 50; s++ {
		if err := eng.Step(1.0); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range eng.Sys.Bonds {
		r := vec.MinImage(eng.St.Pos[b.I], eng.St.Pos[b.J], eng.Sys.Box).Norm()
		want := ff.BondTypes[b.Type].R0
		if math.Abs(r-want) > 1e-3*want {
			t.Fatalf("bond %d-%d length %.6f, constrained to %.6f", b.I, b.J, r, want)
		}
	}
}

func TestRattleRemovesBondVelocity(t *testing.T) {
	eng := constrainedWaterSetup(t)
	if err := eng.Step(1.0); err != nil {
		t.Fatal(err)
	}
	// After RATTLE, relative velocity along each bond must vanish.
	for _, b := range eng.Sys.Bonds {
		d := vec.MinImage(eng.St.Pos[b.I], eng.St.Pos[b.J], eng.Sys.Box)
		vRel := eng.St.Vel[b.I].Sub(eng.St.Vel[b.J])
		if dot := math.Abs(d.Dot(vRel)); dot > 1e-9 {
			t.Fatalf("bond %d-%d has radial velocity %.2e", b.I, b.J, dot)
		}
	}
}

func TestConstrainedLargerTimestepStable(t *testing.T) {
	// With O-H bonds frozen, a 2 fs timestep is stable, which it is not
	// for unconstrained TIP3P-like water. Check energy stays bounded.
	eng := constrainedWaterSetup(t)
	e0 := eng.Energies().Total()
	for s := 0; s < 100; s++ {
		if err := eng.Step(2.0); err != nil {
			t.Fatal(err)
		}
	}
	e1 := eng.Energies().Total()
	ke := eng.Kinetic()
	if ke == 0 {
		t.Fatal("system froze")
	}
	if math.Abs(e1-e0) > 0.5*ke {
		t.Errorf("constrained 2 fs run drifted %.1f kcal/mol (KE %.1f)", e1-e0, ke)
	}
}

// TestShakeRebuildsClusterList: SHAKE corrections are not drift-tracked,
// so the constrained step must void the list's drift bound every step. (It
// once invalidated only a list mode the engine was not in; the cluster
// list then never rebuilt and went stale silently.) The list must
// rebuild during a constrained run, and the forces at the final
// positions must equal the list-free reference path's.
//
// The constrained step runs on the shared compute phase, so the same
// holds on two workers, whose trajectory must follow the one-worker one
// within summation-order tolerance.
func TestShakeRebuildsClusterList(t *testing.T) {
	relaxed := constrainedWaterSetup(t)
	sys, ff := relaxed.Sys, relaxed.FF
	var oneSt *topology.State
	for _, workers := range []int{1, 2} {
		st := relaxed.St.Clone()
		cfg := clusterConfig(workers)
		cfg.HBondConstraints = true
		eng := buildEngine(t, sys, ff, st, cfg)
		eng.ComputeForces()
		built := eng.ClusterRebuilds()
		for s := 0; s < 150; s++ {
			if err := eng.Step(1.0); err != nil {
				t.Fatalf("%d workers, step %d: %v", workers, s, err)
			}
		}
		if eng.ClusterRebuilds() <= built {
			t.Fatalf("%d workers: cluster list never rebuilt in 150 constrained steps (%d builds)", workers, eng.ClusterRebuilds())
		}
		if eng.Steps() != 150 {
			t.Errorf("%d workers: %d steps counted, want 150", workers, eng.Steps())
		}
		rf, cf := refEngine(t, sys, ff, st.Clone()).Forces(), eng.Forces()
		for i := range rf {
			if !vec.ApproxEq(cf[i], rf[i], 1e-7*(1+rf[i].Norm())) {
				t.Fatalf("%d workers, atom %d: cluster force %v, reference %v", workers, i, cf[i], rf[i])
			}
		}
		if workers == 1 {
			oneSt = st
			continue
		}
		for i := range st.Pos {
			if d := vec.MinImage(st.Pos[i], oneSt.Pos[i], sys.Box).Norm(); d > 1e-6 {
				t.Fatalf("two-worker constrained run diverged from one worker by %.2e Å at atom %d", d, i)
			}
		}
	}
}

func TestConstraintsSkipHeavyBonds(t *testing.T) {
	// A protein-like chain has C-C and C-N bonds that must NOT be
	// constrained; only X-H bonds are.
	spec := molgen.Spec{
		Name: "mix", Box: vec.New(30, 30, 30), TargetAtoms: 600,
		ProteinChains: 1, ChainResidues: 10, Seed: 3,
	}
	sys, _, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(9.0)
	c, err := newHBondConstraints(sys, ff)
	if err != nil {
		t.Fatal(err)
	}
	withH := 0
	for _, b := range sys.Bonds {
		if sys.Atoms[b.I].Mass < 3.5 || sys.Atoms[b.J].Mass < 3.5 {
			withH++
		}
	}
	if len(c.pairs) != withH {
		t.Errorf("constraints = %d, bonds with H = %d", len(c.pairs), withH)
	}
	if len(c.pairs) == len(sys.Bonds) {
		t.Error("heavy-atom bonds were constrained too")
	}
}

func TestConstraintValidation(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(4.5)
	ff.BondTypes = append([]forcefield.BondType(nil), ff.BondTypes...)
	for i := range ff.BondTypes {
		ff.BondTypes[i].R0 = 0
	}
	if _, err := New(sys, ff, st, Config{Workers: 1, HBondConstraints: true}); err == nil {
		t.Error("zero target length accepted")
	}
}
