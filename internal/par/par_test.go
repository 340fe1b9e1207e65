package par

import (
	"math"
	"testing"

	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/seq"
	"gonamd/internal/thermo"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

func smallSystem(t *testing.T) (*topology.System, *topology.State, *forcefield.Params) {
	t.Helper()
	spec := molgen.Spec{
		Name:          "partest",
		Box:           vec.New(30, 30, 30),
		TargetAtoms:   1200,
		ProteinChains: 1,
		ChainResidues: 15,
		LipidCount:    2,
		LipidTailLen:  6,
		Temperature:   300,
		Seed:          23,
	}
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sys, st, forcefield.Standard(12.0)
}

func TestForcesMatchSequential(t *testing.T) {
	sys, st, ff := smallSystem(t)
	for _, workers := range []int{1, 2, 4, 7} {
		eng, err := New(sys, ff, st.Clone(), workers, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		en := eng.ComputeForces()

		ref, err := seq.New(sys, ff, st.Clone())
		if err != nil {
			t.Fatal(err)
		}
		refEn := ref.ComputeForces()
		refF := ref.Forces()

		if math.Abs(en.Potential()-refEn.Potential()) > 1e-7*(1+math.Abs(refEn.Potential())) {
			t.Errorf("%d workers: potential %v vs sequential %v", workers, en.Potential(), refEn.Potential())
		}
		for i, f := range eng.Forces() {
			if !vec.ApproxEq(f, refF[i], 1e-7*(1+refF[i].Norm())) {
				t.Fatalf("%d workers: force on atom %d = %v, sequential %v", workers, i, f, refF[i])
			}
		}
	}
}

func TestTrajectoryMatchesSequential(t *testing.T) {
	sys, st, ff := smallSystem(t)

	seqSt := st.Clone()
	ref, err := seq.New(sys, ff, seqSt)
	if err != nil {
		t.Fatal(err)
	}
	ref.Minimize(30, 0.2)

	parSt := st.Clone()
	refEng, err := seq.New(sys, ff, parSt)
	if err != nil {
		t.Fatal(err)
	}
	refEng.Minimize(30, 0.2)

	eng, err := New(sys, ff, parSt, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.RebalanceEvery = 0

	const steps = 10
	ref.Run(steps, 0.5)
	eng.Run(steps, 0.5)

	for i := range seqSt.Pos {
		d := vec.MinImage(seqSt.Pos[i], parSt.Pos[i], sys.Box).Norm()
		if d > 1e-7 {
			t.Fatalf("atom %d diverged by %.2e Å after %d steps", i, d, steps)
		}
	}
}

func TestRebalanceRuns(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.RebalanceEvery = 2
	eng.Run(5, 0.25)
	if eng.Balances() != 2 {
		t.Errorf("balances = %d, want 2", eng.Balances())
	}
	// The assignment must stay valid.
	for ti, w := range eng.assign {
		if w < 0 || w >= eng.Workers() {
			t.Fatalf("task %d assigned to worker %d", ti, w)
		}
	}
	// Forces still correct after rebalancing.
	ref, err := seq.New(sys, ff, &topology.State{Pos: st.Pos, Vel: st.Vel})
	if err != nil {
		t.Fatal(err)
	}
	refEn := ref.ComputeForces()
	en := eng.ComputeForces()
	if math.Abs(en.Potential()-refEn.Potential()) > 1e-7*(1+math.Abs(refEn.Potential())) {
		t.Errorf("post-rebalance potential %v vs %v", en.Potential(), refEn.Potential())
	}
}

func TestRebalanceImprovesSpread(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.RebalanceEvery = 0
	eng.Run(3, 0.25) // populate measurements
	spread := func() float64 {
		loads := eng.WorkerLoads()
		lo, hi := loads[0], loads[0]
		total := 0.0
		for _, l := range loads {
			total += l
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if total == 0 {
			return 0
		}
		return (hi - lo) / (total / float64(len(loads)))
	}
	before := spread()
	eng.Rebalance()
	eng.Run(3, 0.25)
	after := spread()
	// Measured wall-clock times are noisy; only catastrophic regressions
	// should fail.
	if after > before*2+0.5 {
		t.Errorf("rebalance worsened load spread: %.3f -> %.3f", before, after)
	}
	if eng.NumTasks() == 0 {
		t.Error("no tasks")
	}
}

func TestEnergyConservationParallel(t *testing.T) {
	spec := molgen.WaterBox(14, 31)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(6.0)
	// Minimize with the sequential engine, then run NVE in parallel.
	ref, err := seq.New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	ref.Minimize(150, 0.2)

	eng, err := New(sys, ff, st, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e0 := eng.Energies().Total()
	var maxDrift float64
	for s := 0; s < 120; s++ {
		eng.Step(0.5)
		if d := math.Abs(eng.Energies().Total() - e0); d > maxDrift {
			maxDrift = d
		}
	}
	ke := eng.Kinetic()
	if ke == 0 {
		t.Fatal("no kinetic energy")
	}
	if maxDrift > 0.05*ke {
		t.Errorf("energy drift %.3f kcal/mol (KE %.3f)", maxDrift, ke)
	}
}

func TestNewValidation(t *testing.T) {
	sys, st, ff := smallSystem(t)
	bad := &topology.State{Pos: st.Pos[:5], Vel: st.Vel[:5]}
	if _, err := New(sys, ff, bad, 2, 0, 0); err == nil {
		t.Error("mismatched state accepted")
	}
	if eng, err := New(sys, ff, st, 0, 0, 0); err != nil || eng.Workers() <= 0 {
		t.Errorf("workers=0 should default to NumCPU: %v", err)
	}
}

func TestTemperatureAndKinetic(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if temp := eng.Temperature(); math.Abs(temp-300) > 25 {
		t.Errorf("temperature %.1f, want ≈ 300", temp)
	}
}

func TestParallelNVT(t *testing.T) {
	spec := molgen.WaterBox(14, 61)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(6.0)
	ref, err := seq.New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	ref.Minimize(120, 0.2)

	eng, err := New(sys, ff, st, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.Thermo = &thermo.Berendsen{Target: 220, Tau: 20}
	eng.Run(150, 0.5)
	if temp := eng.Temperature(); math.Abs(temp-220) > 60 {
		t.Errorf("parallel NVT temperature %.1f, want near 220", temp)
	}
}

func TestWorkerLoadsSumPositive(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.ComputeForces()
	loads := eng.WorkerLoads()
	if len(loads) != 3 {
		t.Fatalf("loads = %v", loads)
	}
	total := 0.0
	for _, l := range loads {
		total += l
	}
	if total <= 0 {
		t.Error("no measured load after a force evaluation")
	}
}

func TestVirialMatchesSequential(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st.Clone(), 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := seq.New(sys, ff, st.Clone())
	if err != nil {
		t.Fatal(err)
	}
	a := eng.ComputeForces().Virial
	b := ref.ComputeForces().Virial
	if math.Abs(a-b) > 1e-7*(1+math.Abs(b)) {
		t.Errorf("virial: parallel %v vs sequential %v", a, b)
	}
}
