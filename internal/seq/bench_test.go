package seq

import (
	"testing"

	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
)

// benchEngine builds a medium water box once per benchmark.
func benchEngine(b *testing.B, clusters bool) *Engine {
	b.Helper()
	sys, st, err := molgen.Build(molgen.WaterBox(22, 3))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(sys, forcefield.Standard(9.0), st)
	if err != nil {
		b.Fatal(err)
	}
	eng.Minimize(50, 0.2)
	if clusters {
		if err := eng.EnableClusterLists(4, 8); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// BenchmarkForceEvalCellList measures a full force evaluation on the
// list-free reference path (~3100 atoms, 9 Å cutoff).
func BenchmarkForceEvalCellList(b *testing.B) {
	eng := benchEngine(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.fresh = false
		eng.ComputeForces()
	}
}

// BenchmarkForceEvalCluster measures the same evaluation over the
// cluster pair list (list reused across iterations, as in dynamics).
func BenchmarkForceEvalCluster(b *testing.B) {
	eng := benchEngine(b, true)
	eng.ComputeForces() // build the list
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.fresh = false
		eng.ComputeForces()
	}
}

// BenchmarkMDStep measures one full velocity-Verlet step.
func BenchmarkMDStep(b *testing.B) {
	eng := benchEngine(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(0.5)
	}
}
