package seq

import (
	"math"
	"testing"

	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

func smallSystem(t *testing.T) (*topology.System, *topology.State, *forcefield.Params) {
	t.Helper()
	spec := molgen.Spec{
		Name:          "test",
		Box:           vec.New(30, 30, 30),
		TargetAtoms:   900,
		ProteinChains: 1,
		ChainResidues: 12,
		LipidCount:    2,
		LipidTailLen:  6,
		Temperature:   300,
		Seed:          11,
	}
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sys, st, forcefield.Standard(12.0)
}

// TestCellWalkMatchesBruteForce: the whole reference evaluation — the
// cell walk plus the bonded terms — against the O(N²) double loop.
func TestCellWalkMatchesBruteForce(t *testing.T) {
	sys, st, ff := smallSystem(t)
	walk, err := NewCellWalk(sys.Box, ff.Cutoff)
	if err != nil {
		t.Fatal(err)
	}
	forces := make([]vec.V3, sys.N())
	var en Energies
	walk.Nonbonded(sys, ff, st.Pos, forces, &en)
	bonded(sys, ff, st.Pos, forces, &en)
	bfForces, bfEn := BruteForce(sys, ff, st)

	if math.Abs(en.VdW-bfEn.VdW) > 1e-7*(1+math.Abs(bfEn.VdW)) {
		t.Errorf("VdW: cell %v vs brute %v", en.VdW, bfEn.VdW)
	}
	if math.Abs(en.Elec-bfEn.Elec) > 1e-7*(1+math.Abs(bfEn.Elec)) {
		t.Errorf("Elec: cell %v vs brute %v", en.Elec, bfEn.Elec)
	}
	if en.Bond != bfEn.Bond || en.Angle != bfEn.Angle || en.Dihedral != bfEn.Dihedral || en.Improper != bfEn.Improper {
		t.Errorf("bonded energies differ: cell %v vs brute %v", en, bfEn)
	}
	for i, f := range forces {
		if !vec.ApproxEq(f, bfForces[i], 1e-6*(1+bfForces[i].Norm())) {
			t.Fatalf("force on atom %d: cell %v vs brute %v", i, f, bfForces[i])
		}
	}
}

// TestCellWalkPureFunctionOfPositions: the walk carries nothing from one
// evaluation to the next — evaluating elsewhere in between leaves the
// forces at the original positions bitwise unchanged.
func TestCellWalkPureFunctionOfPositions(t *testing.T) {
	sys, st, ff := smallSystem(t)
	walk, err := NewCellWalk(sys.Box, ff.Cutoff)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(pos []vec.V3) ([]vec.V3, Energies) {
		forces := make([]vec.V3, sys.N())
		var en Energies
		walk.Nonbonded(sys, ff, pos, forces, &en)
		return forces, en
	}
	f0, en0 := eval(st.Pos)
	moved := st.Clone()
	for i := range moved.Pos {
		moved.Pos[i] = vec.Wrap(moved.Pos[i].Add(vec.New(0.3, -0.2, 0.1).Scale(float64(i%7))), sys.Box)
	}
	eval(moved.Pos)
	f1, en1 := eval(st.Pos)
	if en0 != en1 {
		t.Errorf("energies changed across an unrelated evaluation: %v vs %v", en0, en1)
	}
	for i := range f0 {
		if f0[i] != f1[i] {
			t.Fatalf("force on atom %d changed across an unrelated evaluation: %v vs %v", i, f0[i], f1[i])
		}
	}
}
