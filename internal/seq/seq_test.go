package seq

import (
	"math"
	"testing"

	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/thermo"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
	"gonamd/internal/xrand"
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

func TestNewRejectsBadInput(t *testing.T) {
	sys, st, ff := smallSystem(t)
	short := &topology.State{Pos: st.Pos[:10], Vel: st.Vel[:10]}
	if _, err := New(sys, ff, short); err == nil {
		t.Error("mismatched state accepted")
	}
	noExcl := &topology.System{Name: "x", Box: sys.Box, Atoms: sys.Atoms}
	if _, err := New(noExcl, ff, st); err == nil {
		t.Error("system without exclusions accepted")
	}
}

func TestCellListMatchesBruteForce(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	en := eng.ComputeForces()
	bfForces, bfEn := BruteForce(sys, ff, st)

	if math.Abs(en.VdW-bfEn.VdW) > 1e-7*(1+math.Abs(bfEn.VdW)) {
		t.Errorf("VdW: cell %v vs brute %v", en.VdW, bfEn.VdW)
	}
	if math.Abs(en.Elec-bfEn.Elec) > 1e-7*(1+math.Abs(bfEn.Elec)) {
		t.Errorf("Elec: cell %v vs brute %v", en.Elec, bfEn.Elec)
	}
	for i, f := range eng.Forces() {
		if !vec.ApproxEq(f, bfForces[i], 1e-6*(1+bfForces[i].Norm())) {
			t.Fatalf("force on atom %d: cell %v vs brute %v", i, f, bfForces[i])
		}
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.ComputeForces()
	var sum vec.V3
	maxF := 0.0
	for _, f := range eng.Forces() {
		sum = sum.Add(f)
		if n := f.Norm(); n > maxF {
			maxF = n
		}
	}
	if sum.Norm() > 1e-8*(1+maxF) {
		t.Errorf("net force %v (max individual %v)", sum, maxF)
	}
}

func TestMinimizeDecreasesEnergy(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.ComputeForces().Potential()
	after := eng.Minimize(50, 0.2)
	if after > before {
		t.Errorf("Minimize increased energy: %v -> %v", before, after)
	}
	if after == before {
		t.Error("Minimize made no progress")
	}
}

func TestEnergyConservation(t *testing.T) {
	spec := molgen.WaterBox(16, 5)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0) // smaller cutoff keeps the test fast
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.Minimize(150, 0.2)
	// Short NVE run: total energy drift should be far below the kinetic
	// energy scale.
	e0 := eng.Energies().Total()
	var maxDrift float64
	for s := 0; s < 200; s++ {
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
		t.Errorf("energy drift %.3f kcal/mol over 100 fs (KE = %.3f)", maxDrift, ke)
	}
}

func TestMomentumConservation(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.Minimize(50, 0.2)
	momentum := func() vec.V3 {
		var p vec.V3
		for i, v := range st.Vel {
			p = p.Add(v.Scale(sys.Atoms[i].Mass))
		}
		return p
	}
	p0 := momentum()
	eng.Run(20, 0.5)
	p1 := momentum()
	if p1.Sub(p0).Norm() > 1e-9*float64(sys.N()) {
		t.Errorf("momentum changed: %v -> %v", p0, p1)
	}
}

func TestTemperature(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	temp := eng.Temperature()
	if math.Abs(temp-300) > 25 {
		t.Errorf("initial temperature %.1f, want ≈ 300", temp)
	}
	for i := range st.Vel {
		st.Vel[i] = vec.Zero
	}
	if eng.Temperature() != 0 {
		t.Error("zero velocities should give zero temperature")
	}
}

func TestVerletReversibility(t *testing.T) {
	// Integrate forward then backward (negate velocities): positions
	// must return to the start to within floating-point error.
	spec := molgen.WaterBox(12, 9)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(5.5)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.Minimize(100, 0.2)
	start := st.Clone()
	const steps = 20
	eng.Run(steps, 0.5)
	for i := range st.Vel {
		st.Vel[i] = st.Vel[i].Neg()
	}
	eng.fresh = false
	eng.Run(steps, 0.5)
	for i := range st.Pos {
		d := vec.MinImage(st.Pos[i], start.Pos[i], sys.Box).Norm()
		if d > 1e-8 {
			t.Fatalf("atom %d returned %.2e Å off after reversal", i, d)
		}
	}
}

func TestEnergiesAccessorsConsistent(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	en1 := eng.ComputeForces()
	en2 := eng.Energies()
	if en1.Potential() != en2.Potential() {
		t.Errorf("Potential differs between ComputeForces and Energies: %v vs %v", en1.Potential(), en2.Potential())
	}
	if en2.Total() != en2.Potential()+en2.Kinetic {
		t.Error("Total != Potential + Kinetic")
	}
	if s := en2.String(); len(s) == 0 {
		t.Error("empty String()")
	}
}

func TestForcesMatchPotentialGradient(t *testing.T) {
	// Numerical gradient of the full potential for a handful of atoms.
	spec := molgen.WaterBox(10, 21)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(4.5)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.ComputeForces()
	forces := append([]vec.V3(nil), eng.Forces()...)

	energyAt := func() float64 {
		eng.fresh = false
		return eng.ComputeForces().Potential()
	}
	rng := xrand.New(4)
	h := 1e-6
	for trial := 0; trial < 5; trial++ {
		a := rng.Intn(sys.N())
		var grad vec.V3
		for c := 0; c < 3; c++ {
			orig := st.Pos[a]
			st.Pos[a] = orig.SetComp(c, orig.Comp(c)+h)
			ep := energyAt()
			st.Pos[a] = orig.SetComp(c, orig.Comp(c)-h)
			em := energyAt()
			st.Pos[a] = orig
			grad = grad.SetComp(c, (ep-em)/(2*h))
		}
		want := grad.Neg()
		if !vec.ApproxEq(forces[a], want, 2e-3*(1+want.Norm())) {
			t.Errorf("force on atom %d = %v, numerical -∇E = %v", a, forces[a], want)
		}
	}
}

func TestNVTWithBerendsenThermostat(t *testing.T) {
	// Full integration: minimize, then run NVT with a Berendsen
	// thermostat from a cold start; the system must heat toward target.
	spec := molgen.WaterBox(14, 8)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(6.0)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.Minimize(120, 0.2)
	rng := xrand.New(3)
	for i := range st.Vel {
		st.Vel[i] = st.Vel[i].Scale(0.1 * rng.Float64())
	}
	eng.Thermo = &thermo.Berendsen{Target: 240, Tau: 25}
	eng.Run(250, 0.5)
	temp := eng.Temperature()
	if temp < 150 || temp > 330 {
		t.Errorf("NVT run temperature %.1f, want near 240", temp)
	}
}

// clusterEngine returns an engine over st on 4×8 cluster lists.
func clusterEngine(t *testing.T, sys *topology.System, ff *forcefield.Params, st *topology.State) *Engine {
	t.Helper()
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableClusterLists(4, 8); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestClusterListMatchesReference(t *testing.T) {
	sys, st, ff := smallSystem(t)
	direct, err := New(sys, ff, st.Clone())
	if err != nil {
		t.Fatal(err)
	}
	listed := clusterEngine(t, sys, ff, st.Clone())

	dEn := direct.ComputeForces()
	lEn := listed.ComputeForces()
	if math.Abs(dEn.Potential()-lEn.Potential()) > 1e-9*(1+math.Abs(dEn.Potential())) {
		t.Errorf("cluster potential %v vs reference %v", lEn.Potential(), dEn.Potential())
	}
	if math.Abs(dEn.Virial-lEn.Virial) > 1e-7*(1+math.Abs(dEn.Virial)) {
		t.Errorf("virial: reference %v vs cluster %v", dEn.Virial, lEn.Virial)
	}
	df, lf := direct.Forces(), listed.Forces()
	for i := range df {
		if !vec.ApproxEq(lf[i], df[i], 1e-9*(1+df[i].Norm())) {
			t.Fatalf("cluster force on atom %d: %v vs %v", i, lf[i], df[i])
		}
	}
	if listed.ClusterRebuilds() != 1 {
		t.Errorf("rebuilds = %d, want 1", listed.ClusterRebuilds())
	}
}

func TestClusterListStaysCorrectAcrossTrajectory(t *testing.T) {
	sys, st, ff := smallSystem(t)
	direct, err := New(sys, ff, st.Clone())
	if err != nil {
		t.Fatal(err)
	}
	direct.Minimize(30, 0.2)
	dirSt := direct.St

	listedSt := dirSt.Clone()
	listed := clusterEngine(t, sys, ff, listedSt)

	for s := 0; s < 25; s++ {
		direct.Step(0.5)
		listed.Step(0.5)
	}
	for i := range dirSt.Pos {
		d := vec.MinImage(dirSt.Pos[i], listedSt.Pos[i], sys.Box).Norm()
		if d > 1e-8 {
			t.Fatalf("trajectories diverged by %.2e Å at atom %d", d, i)
		}
	}
}

func TestClusterListRebuildsOnMotion(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng := clusterEngine(t, sys, ff, st)
	eng.ComputeForces()
	if eng.ClusterRebuilds() != 1 {
		t.Fatalf("rebuilds = %d", eng.ClusterRebuilds())
	}
	// Move one atom beyond skin/2: next evaluation must rebuild. External
	// position edits go through Invalidate, which also voids the drift
	// bound so the displacement scan actually runs.
	st.Pos[0] = vec.Wrap(st.Pos[0].Add(vec.New(DefaultClusterSkin/2+0.05, 0, 0)), sys.Box)
	eng.Invalidate()
	eng.ComputeForces()
	if eng.ClusterRebuilds() != 2 {
		t.Errorf("rebuilds = %d, want 2 after large displacement", eng.ClusterRebuilds())
	}
	// No motion: no rebuild.
	eng.Invalidate()
	eng.ComputeForces()
	if eng.ClusterRebuilds() != 2 {
		t.Errorf("rebuilds = %d, want 2 (no motion)", eng.ClusterRebuilds())
	}
	// ResetLists drops the history: the next evaluation rebuilds whatever
	// the positions.
	eng.Invalidate()
	eng.ResetLists()
	eng.ComputeForces()
	if eng.ClusterRebuilds() != 3 {
		t.Errorf("rebuilds = %d, want 3 after ResetLists", eng.ClusterRebuilds())
	}
}

// TestClusterKernelFollowsElectrostatics: nobody chooses the kernel — a
// cluster engine evaluates the tabulated kernel exactly when full
// electrostatics are on, whichever is enabled first.
func TestClusterKernelFollowsElectrostatics(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng := clusterEngine(t, sys, ff, st.Clone())
	if eng.clusters.kernel.Tabulated() {
		t.Error("shifted-cutoff cluster engine selected the tabulated kernel")
	}
	if err := EnableFullElectrostatics(eng, 1.0, 0.35, 1); err != nil {
		t.Fatal(err)
	}
	if !eng.clusters.kernel.Tabulated() {
		t.Error("cluster engine with PME did not select the tabulated kernel")
	}
	eng.ComputeForces() // the table must match the swapped force field (checkParams panics otherwise)

	ref, err := New(sys, ff, st.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if err := EnableFullElectrostatics(ref, 1.0, 0.35, 1); err != nil {
		t.Fatal(err)
	}
	if err := ref.EnableClusterLists(4, 8); err != nil {
		t.Fatal(err)
	}
	if !ref.clusters.kernel.Tabulated() {
		t.Error("PME engine given cluster lists afterwards did not select the tabulated kernel")
	}
}

func TestMTSEnergyConservation(t *testing.T) {
	spec := molgen.WaterBox(15, 18)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(6.5)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.Minimize(150, 0.2)
	mts := NewMTS(eng)
	mts.Step(0.5, 2) // prime the split force evaluations
	e0 := mts.Energies().Total()
	var maxDrift float64
	for s := 0; s < 60; s++ {
		mts.Step(0.5, 2) // 1 fs outer, 0.5 fs inner
		if d := math.Abs(mts.Energies().Total() - e0); d > maxDrift {
			maxDrift = d
		}
	}
	ke := eng.Kinetic()
	if ke == 0 {
		t.Fatal("no kinetic energy")
	}
	if maxDrift > 0.08*ke {
		t.Errorf("MTS energy drift %.3f kcal/mol (KE %.3f)", maxDrift, ke)
	}
	// The point of MTS: 60 outer steps = 60+1 slow evaluations for 120
	// inner steps of dynamics (half of plain Verlet's 120).
	if mts.SlowEvals > 62 {
		t.Errorf("slow evaluations = %d for 60 outer steps", mts.SlowEvals)
	}
}

func TestMTSMatchesVerletAtK1(t *testing.T) {
	// With split factor 1 the impulse scheme is ordinary velocity Verlet
	// (forces split but applied at the same points).
	spec := molgen.WaterBox(12, 27)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(5.5)
	ref, err := New(sys, ff, st.Clone())
	if err != nil {
		t.Fatal(err)
	}
	ref.Minimize(80, 0.2)

	mtsSt := st.Clone()
	refEng, err := New(sys, ff, mtsSt)
	if err != nil {
		t.Fatal(err)
	}
	refEng.Minimize(80, 0.2)

	mts := NewMTS(refEng)
	for s := 0; s < 10; s++ {
		ref.Step(0.5)
		mts.Step(0.5, 1)
	}
	for i := range mtsSt.Pos {
		d := vec.MinImage(ref.St.Pos[i], mtsSt.Pos[i], sys.Box).Norm()
		if d > 1e-9 {
			t.Fatalf("k=1 MTS diverged from Verlet by %.2e Å at atom %d", d, i)
		}
	}
}

func TestMTSValidation(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	mts := NewMTS(eng)
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	mts.Step(0.5, 0)
}

func TestEnergyTranslationInvariance(t *testing.T) {
	// Periodic boundary conditions: translating every atom by the same
	// vector must not change any energy component.
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	e1 := eng.ComputeForces()

	shifted := st.Clone()
	d := vec.New(7.3, -11.1, 23.9)
	for i := range shifted.Pos {
		shifted.Pos[i] = vec.Wrap(shifted.Pos[i].Add(d), sys.Box)
	}
	eng2, err := New(sys, ff, shifted)
	if err != nil {
		t.Fatal(err)
	}
	e2 := eng2.ComputeForces()
	if math.Abs(e1.Potential()-e2.Potential()) > 1e-6*(1+math.Abs(e1.Potential())) {
		t.Errorf("translation changed potential: %v -> %v", e1.Potential(), e2.Potential())
	}
	for i := range eng.Forces() {
		if !vec.ApproxEq(eng.Forces()[i], eng2.Forces()[i], 1e-6*(1+eng.Forces()[i].Norm())) {
			t.Fatalf("translation changed force on atom %d", i)
		}
	}
}

func TestVirialMatchesVolumeDerivative(t *testing.T) {
	// The virial theorem check: W = -dU/dλ at λ=1 under uniform scaling
	// of all positions AND the box (reduced coordinates fixed, cutoff
	// fixed). Scale-invariant terms (angles, torsions) contribute zero;
	// bonds and nonbonded terms contribute their r·F.
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	en := eng.ComputeForces()

	energyAtScale := func(lambda float64) float64 {
		scaled := &topology.System{
			Name: sys.Name, Atoms: sys.Atoms, Bonds: sys.Bonds,
			Angles: sys.Angles, Dihedrals: sys.Dihedrals, Impropers: sys.Impropers,
			Box: sys.Box.Scale(lambda),
		}
		scaled.BuildExclusions()
		sst := topology.NewState(sys.N())
		for i := range sst.Pos {
			sst.Pos[i] = st.Pos[i].Scale(lambda)
		}
		e2, err := New(scaled, ff, sst)
		if err != nil {
			t.Fatal(err)
		}
		return e2.ComputeForces().Potential()
	}
	h := 1e-6
	dUdLambda := (energyAtScale(1+h) - energyAtScale(1-h)) / (2 * h)
	want := -dUdLambda
	if math.Abs(en.Virial-want) > 1e-2*(1+math.Abs(want)) {
		t.Errorf("virial = %.4f, -dU/dλ = %.4f", en.Virial, want)
	}
}

func TestPressureFinite(t *testing.T) {
	spec := molgen.WaterBox(16, 5)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.Minimize(100, 0.2)
	p := eng.Pressure()
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("pressure = %v", p)
	}
	// A freshly-packed lattice water box is far from equilibrium;
	// pressure magnitude should still be in a physically meaningful
	// range (|P| < ~20 katm for condensed water-like systems).
	if math.Abs(p) > 2e4 {
		t.Errorf("pressure %v atm implausible", p)
	}
}

// TestStepPMEZeroAllocsRecip guards the full-electrostatics hot path of
// the sequential engine: with MTS period 1 every step runs the whole
// reciprocal sum (spline, spread, both 3D transforms, convolution,
// gather) and, once the cluster list and atom caches are sized, must not
// allocate.
func TestStepPMEZeroAllocsRecip(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(sys, forcefield.Standard(7.0), st)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableClusterLists(4, 4); err != nil {
		t.Fatal(err)
	}
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
