package seq

import (
	"testing"

	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/vec"
)

// BenchmarkForceEvalCellList measures a full force evaluation of the
// list-free reference — cell walk plus bonded terms — on an as-built
// water box (~3100 atoms, 9 Å cutoff).
func BenchmarkForceEvalCellList(b *testing.B) {
	sys, st, err := molgen.Build(molgen.WaterBox(22, 3))
	if err != nil {
		b.Fatal(err)
	}
	ff := forcefield.Standard(9.0)
	walk, err := NewCellWalk(sys.Box, ff.Cutoff)
	if err != nil {
		b.Fatal(err)
	}
	forces := make([]vec.V3, sys.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(forces)
		var en Energies
		walk.Nonbonded(sys, ff, st.Pos, forces, &en)
		bonded(sys, ff, st.Pos, forces, &en)
	}
}
