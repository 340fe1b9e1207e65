package engine

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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

// refEngine returns the one-worker engine in the list-free reference
// mode over st; clusterEngine one on 4×8 cluster lists with the given
// worker count; buildEngine the engine cfg describes, with
// clusterConfig's cluster geometry. Pools stop when the test ends.
func refEngine(t testing.TB, sys *topology.System, ff *forcefield.Params, st *topology.State) *Engine {
	return buildEngine(t, sys, ff, st, Config{Workers: 1})
}

func clusterEngine(t testing.TB, sys *topology.System, ff *forcefield.Params, st *topology.State, workers int) *Engine {
	return buildEngine(t, sys, ff, st, clusterConfig(workers))
}

func clusterConfig(workers int) Config {
	return Config{Workers: workers, ClusterM: DefaultClusterM, ClusterN: DefaultClusterN}
}

func buildEngine(t testing.TB, sys *topology.System, ff *forcefield.Params, st *topology.State, cfg Config) *Engine {
	t.Helper()
	eng, err := New(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// every returns a rebalance cadence for Config.RebalanceEvery.
func every(steps int) *int { return &steps }

func TestForcesMatchSequential(t *testing.T) {
	sys, st, ff := smallSystem(t)
	for _, workers := range []int{1, 2, 4, 7} {
		eng := clusterEngine(t, sys, ff, st.Clone(), workers)
		en := eng.ComputeForces()

		ref := refEngine(t, sys, ff, st.Clone())
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
	ref := refEngine(t, sys, ff, seqSt)
	ref.Minimize(30, 0.2)

	parSt := st.Clone()
	refEng := refEngine(t, sys, ff, parSt)
	refEng.Minimize(30, 0.2)

	cfg := clusterConfig(4)
	cfg.RebalanceEvery = every(0)
	eng := buildEngine(t, sys, ff, parSt, cfg)

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
	cfg := clusterConfig(3)
	cfg.RebalanceEvery = every(2)
	eng := buildEngine(t, sys, ff, st, cfg)
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
	ref := refEngine(t, sys, ff, &topology.State{Pos: st.Pos, Vel: st.Vel})
	refEn := ref.ComputeForces()
	en := eng.ComputeForces()
	if math.Abs(en.Potential()-refEn.Potential()) > 1e-7*(1+math.Abs(refEn.Potential())) {
		t.Errorf("post-rebalance potential %v vs %v", en.Potential(), refEn.Potential())
	}
}

func TestRebalanceImprovesSpread(t *testing.T) {
	sys, st, ff := smallSystem(t)
	cfg := clusterConfig(4)
	cfg.RebalanceEvery = every(0)
	eng := buildEngine(t, sys, ff, st, cfg)
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
	ref := refEngine(t, sys, ff, st)
	ref.Minimize(150, 0.2)

	eng := clusterEngine(t, sys, ff, st, 4)
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
	if _, err := New(sys, ff, bad, clusterConfig(2)); err == nil {
		t.Error("mismatched state accepted")
	}
	noExcl := &topology.System{Name: "x", Box: sys.Box, Atoms: sys.Atoms}
	if _, err := New(noExcl, ff, st, Config{Workers: 1}); err == nil {
		t.Error("system without exclusions accepted")
	}
	if _, err := New(sys, ff, st, Config{Workers: 2}); err == nil {
		t.Error("reference mode accepted on two workers")
	}
	if _, err := New(sys, ff, st, Config{Workers: 1, HBondConstraints: true, PME: &PMEConfig{GridSpacing: 1, MTSPeriod: 1}}); err == nil {
		t.Error("constraints accepted with PME")
	}
	if _, err := New(sys, ff, st, Config{Workers: 1, PME: &PMEConfig{GridSpacing: 1}}); err == nil {
		t.Error("PME accepted with MTS period 0")
	}
	if eng, err := New(sys, ff, st, clusterConfig(0)); err != nil || eng.Workers() <= 0 {
		t.Errorf("workers=0 should default to NumCPU: %v", err)
	} else {
		eng.Close()
	}
}

func TestTemperature(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng := clusterEngine(t, sys, ff, st, 2)
	if temp := eng.Temperature(); math.Abs(temp-300) > 25 {
		t.Errorf("initial temperature %.1f, want ≈ 300", temp)
	}
	for i := range st.Vel {
		st.Vel[i] = vec.Zero
	}
	if eng.Temperature() != 0 {
		t.Error("zero velocities should give zero temperature")
	}
}

func TestParallelNVT(t *testing.T) {
	spec := molgen.WaterBox(14, 61)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(6.0)
	ref := refEngine(t, sys, ff, st)
	ref.Minimize(120, 0.2)

	// One instantaneous temperature of a ~270-atom box swings by tens of
	// kelvin from step to step; the mean over a window after the coupling
	// has acted (τ = 20 fs, the window starts at 150 fs) does not.
	cfg := clusterConfig(3)
	cfg.Thermostat = &thermo.Berendsen{Target: 220, Tau: 20}
	eng := buildEngine(t, sys, ff, st, cfg)
	eng.Run(300, 0.5)
	var sum float64
	const window = 300
	for s := 0; s < window; s++ {
		eng.Step(0.5)
		sum += eng.Temperature()
	}
	if temp := sum / window; math.Abs(temp-220) > 60 {
		t.Errorf("parallel NVT mean temperature over steps 301–600 %.1f, want near 220", temp)
	}
}

func TestWorkerLoadsSumPositive(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng := clusterEngine(t, sys, ff, st, 3)
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
	eng := clusterEngine(t, sys, ff, st.Clone(), 4)
	ref := refEngine(t, sys, ff, st.Clone())
	a := eng.ComputeForces().Virial
	b := ref.ComputeForces().Virial
	if math.Abs(a-b) > 1e-7*(1+math.Abs(b)) {
		t.Errorf("virial: parallel %v vs sequential %v", a, b)
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng := refEngine(t, sys, ff, st)
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
	eng := refEngine(t, sys, ff, st)
	before := eng.ComputeForces().Potential()
	after := eng.Minimize(50, 0.2)
	if after > before {
		t.Errorf("Minimize increased energy: %v -> %v", before, after)
	}
	if after == before {
		t.Error("Minimize made no progress")
	}
}

// steepestDescent is Minimize written out on ComputeForces and Forces
// alone: backtracking steepest descent that, after a rejected trial,
// steps again from the accepted point along the accepted point's forces.
// It returns the final potential, the forces there and how many trials
// it rejected.
func steepestDescent(e *Engine, steps int, maxMove float64) (float64, []vec.V3, int) {
	gamma := 1e-4
	prev := e.ComputeForces().Potential()
	f := append([]vec.V3(nil), e.Forces()...)
	saved := make([]vec.V3, len(f))
	rejected := 0
	for s := 0; s < steps; s++ {
		copy(saved, e.St.Pos)
		for i := range f {
			d := f[i].Scale(gamma)
			if n := d.Norm(); n > maxMove {
				d = d.Scale(maxMove / n)
			}
			e.St.Pos[i] = vec.Wrap(e.St.Pos[i].Add(d), e.Sys.Box)
		}
		e.Invalidate()
		if cur := e.ComputeForces().Potential(); cur <= prev {
			prev = cur
			copy(f, e.Forces())
			gamma *= 1.2
			continue
		}
		rejected++
		copy(e.St.Pos, saved)
		e.Invalidate()
		if gamma *= 0.5; gamma < 1e-12 {
			break
		}
	}
	return prev, f, rejected
}

// TestMinimizeStepsAlongAcceptedGradient: Minimize is bitwise the
// hand-rolled steepest descent — positions, final potential and the
// forces it leaves behind — in reference mode and on cluster lists at one
// worker and two, over enough iterations to reject trials. A minimizer
// that kept the rejected trial's forces stepped from the restored point
// along the wrong gradient.
func TestMinimizeStepsAlongAcceptedGradient(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 5))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	for _, c := range []struct {
		name    string
		workers int
		m, n    int
	}{{"reference", 1, 0, 0}, {"cluster/W=1", 1, DefaultClusterM, DefaultClusterN}, {"cluster/W=2", 2, DefaultClusterM, DefaultClusterN}} {
		t.Run(c.name, func(t *testing.T) {
			mk := func() *Engine {
				return buildEngine(t, sys, ff, st.Clone(), Config{Workers: c.workers, ClusterM: c.m, ClusterN: c.n})
			}
			got, want := mk(), mk()
			u := got.Minimize(150, 0.2)
			wantU, wantF, rejected := steepestDescent(want, 150, 0.2)
			if rejected == 0 {
				t.Fatal("no trial was rejected: the test does not exercise the restore path")
			}
			if u != wantU {
				t.Errorf("Minimize potential %v, hand-rolled %v (%d rejected trials)", u, wantU, rejected)
			}
			if !reflect.DeepEqual(got.St.Pos, want.St.Pos) {
				t.Errorf("Minimize positions differ from the hand-rolled descent (%d rejected trials)", rejected)
			}
			if !reflect.DeepEqual(got.Forces(), wantF) {
				t.Error("Minimize left forces other than the accepted point's")
			}
			if en := got.Energies(); en.Potential() != u {
				t.Errorf("Energies after Minimize report %v, Minimize returned %v", en.Potential(), u)
			}
		})
	}
}

func TestEnergyConservation(t *testing.T) {
	spec := molgen.WaterBox(16, 5)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0) // smaller cutoff keeps the test fast
	eng := refEngine(t, sys, ff, st)
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
	eng := refEngine(t, sys, ff, st)
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

func TestVerletReversibility(t *testing.T) {
	// Integrate forward then backward (negate velocities): positions
	// must return to the start to within floating-point error.
	spec := molgen.WaterBox(12, 9)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(5.5)
	eng := refEngine(t, sys, ff, st)
	eng.Minimize(100, 0.2)
	start := st.Clone()
	const steps = 20
	eng.Run(steps, 0.5)
	for i := range st.Vel {
		st.Vel[i] = st.Vel[i].Neg()
	}
	eng.Invalidate()
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
	eng := refEngine(t, sys, ff, st)
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
	eng := refEngine(t, sys, ff, st)
	eng.ComputeForces()
	forces := append([]vec.V3(nil), eng.Forces()...)

	energyAt := func() float64 {
		eng.Invalidate()
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
	eng := buildEngine(t, sys, ff, st, Config{Workers: 1, Thermostat: &thermo.Berendsen{Target: 240, Tau: 25}})
	eng.Minimize(120, 0.2)
	rng := xrand.New(3)
	for i := range st.Vel {
		st.Vel[i] = st.Vel[i].Scale(0.1 * rng.Float64())
	}
	if _, err := eng.Run(250, 0.5); err != nil {
		t.Fatal(err)
	}
	temp := eng.Temperature()
	if temp < 150 || temp > 330 {
		t.Errorf("NVT run temperature %.1f, want near 240", temp)
	}
}

func TestClusterListMatchesReference(t *testing.T) {
	sys, st, ff := smallSystem(t)
	direct := refEngine(t, sys, ff, st.Clone())
	listed := clusterEngine(t, sys, ff, st.Clone(), 1)

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
	direct := refEngine(t, sys, ff, st.Clone())
	direct.Minimize(30, 0.2)
	dirSt := direct.St

	listedSt := dirSt.Clone()
	listed := clusterEngine(t, sys, ff, listedSt, 1)

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

func TestEnergyTranslationInvariance(t *testing.T) {
	// Periodic boundary conditions: translating every atom by the same
	// vector must not change any energy component.
	sys, st, ff := smallSystem(t)
	eng := refEngine(t, sys, ff, st)
	e1 := eng.ComputeForces()

	shifted := st.Clone()
	d := vec.New(7.3, -11.1, 23.9)
	for i := range shifted.Pos {
		shifted.Pos[i] = vec.Wrap(shifted.Pos[i].Add(d), sys.Box)
	}
	eng2 := refEngine(t, sys, ff, shifted)
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
	eng := refEngine(t, sys, ff, st)
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
		e2 := refEngine(t, scaled, ff, sst)
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
	eng := refEngine(t, sys, ff, st)
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

// goroutines returns the goroutine count once it has held still for a
// moment: Close returns when its workers have signalled their exit, and
// the runtime retires them shortly after.
func goroutines() int {
	n := runtime.NumGoroutine()
	for settled := 0; settled < 5; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			settled++
		} else {
			n, settled = m, 0
		}
	}
	return n
}

// TestGoroutineLifecycle: the one-worker engine is inline — a hundred of
// them, constructed and stepped (cluster lists, reference mode, PME),
// start no goroutine — and a pool's goroutines last from its first
// evaluation to Close, which is idempotent and leaves the engine usable:
// stepping again starts a new pool and continues the same trajectory.
func TestGoroutineLifecycle(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(12, 9))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(5.5)
	baseline := goroutines()
	for i := 0; i < 100; i++ {
		m, n := DefaultClusterM, DefaultClusterN
		if i%4 == 3 {
			m, n = 0, 0
		}
		cfg := Config{Workers: 1, ClusterM: m, ClusterN: n}
		if i%10 == 0 {
			cfg.PME = &PMEConfig{GridSpacing: 1.0, Beta: 0.55, MTSPeriod: 1}
		}
		e, err := New(sys, ff, st.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(0.5); err != nil {
			t.Fatal(err)
		}
		e.Close()
		if got := runtime.NumGoroutine(); got != baseline {
			t.Fatalf("%d goroutines after one-worker engine %d stepped, %d before", got, i, baseline)
		}
	}

	const workers = 3
	mk := func() *Engine {
		cfg := clusterConfig(workers)
		cfg.RebalanceEvery = every(0)
		e, err := New(sys, ff, st.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	whole, closed := mk(), mk()
	defer whole.Close()
	if got := runtime.NumGoroutine(); got != baseline {
		t.Fatalf("%d goroutines after constructing two pooled engines, %d before: the pool starts on first use", got, baseline)
	}
	whole.Run(6, 0.5)
	closed.Run(3, 0.5)
	if got := runtime.NumGoroutine(); got != baseline+2*workers {
		t.Fatalf("%d goroutines with two %d-worker pools up, want %d", got, workers, baseline+2*workers)
	}
	closed.Close()
	closed.Close()
	if got := goroutines(); got != baseline+workers {
		t.Fatalf("%d goroutines after Close, want %d", got, baseline+workers)
	}
	closed.Run(3, 0.5)
	defer closed.Close()
	if !reflect.DeepEqual(closed.St.Pos, whole.St.Pos) {
		t.Error("an engine closed and stepped again left the trajectory of one never closed")
	}
}

// TestStepFailsOnNonFiniteEnergy: a force evaluation that leaves the
// potential energy non-finite fails the step, naming it, instead of
// carrying the state into NaN: here two oxygens 1e-60 Å apart, whose
// Lennard-Jones energy overflows, in reference mode and on cluster lists.
func TestStepFailsOnNonFiniteEnergy(t *testing.T) {
	sys, st0, err := molgen.Build(molgen.WaterBox(12, 9))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(5.5)
	for _, cfg := range []Config{{Workers: 1}, clusterConfig(1), clusterConfig(2)} {
		st := st0.Clone()
		eng := buildEngine(t, sys, ff, st, cfg)
		if err := eng.Step(0.5); err != nil {
			t.Fatal(err)
		}
		st.Pos[0], st.Pos[3] = vec.New(1e-60, 5, 5), vec.New(0, 5, 5)
		eng.Invalidate()
		err := eng.Step(0.5)
		if err == nil || !strings.Contains(err.Error(), "step 2: non-finite potential energy") {
			t.Errorf("%+v: Step = %v, want step 2's non-finite energy error", cfg, err)
		}
		if _, err := eng.Run(3, 0.5); err == nil {
			t.Errorf("%+v: Run continued past a failed step", cfg)
		}
		if eng.Steps() != 1 {
			t.Errorf("%+v: %d steps counted, want 1", cfg, eng.Steps())
		}
	}
}
