package gonamd_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"gonamd"
	"gonamd/internal/forcefield"
	"gonamd/internal/seq"
	"gonamd/internal/topology"
)

// One conformance table for the one nonbonded pipeline: every engine
// configuration that exists — the list-free reference mode, the cluster
// path as NewSequential builds it, and as NewParallel does at 1/2/4/8
// workers — under every electrostatics mode and cluster geometry, held to
// the same list of guarantees against the brute-force oracle.

// pipelineEngine is the engine under either constructor's name.
type pipelineEngine = *gonamd.Parallel

// pipelineConfig is one row of the table. workers < 0 is the reference
// mode (no list, scalar kernel; m and n unused), 0 NewSequential on
// cluster lists, ≥ 1 NewParallel.
type pipelineConfig struct {
	workers, m, n int
}

// referencePath is the row of the sequential reference engine.
var referencePath = pipelineConfig{workers: -1}

func (c pipelineConfig) reference() bool { return c.workers < 0 }

func (c pipelineConfig) String() string {
	switch {
	case c.reference():
		return "seq-reference"
	case c.workers == 0:
		return fmt.Sprintf("seq-cluster-%dx%d", c.m, c.n)
	default:
		return fmt.Sprintf("par%d-cluster-%dx%d", c.workers, c.m, c.n)
	}
}

// elecMode is one electrostatics column: the shifted cutoff, or PME with
// the given impulse-MTS period.
type elecMode struct {
	name string
	mts  int // 0 = shifted cutoff
}

const (
	pmeGridSpacing = 1.0
	pmeBeta        = 0.45 // erfc(β·rc) ≈ 8e-6 at the 7 Å cutoff
)

func (c pipelineConfig) build(t *testing.T, sys *gonamd.System, ff *gonamd.ForceField, st *gonamd.State, mode elecMode) pipelineEngine {
	t.Helper()
	var opts []gonamd.Option
	if mode.mts > 0 {
		opts = append(opts, gonamd.WithPME(pmeGridSpacing, pmeBeta, mode.mts))
	}
	if !c.reference() {
		opts = append(opts, gonamd.WithClusterLists(c.m, c.n))
	}
	var eng pipelineEngine
	var err error
	if c.workers <= 0 {
		eng, err = gonamd.NewSequential(sys, ff, st, opts...)
	} else {
		eng, err = gonamd.NewParallel(sys, ff, st, c.workers, append(opts, gonamd.WithRebalanceEvery(0))...)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// diffSystem is the water box the table runs on, minimized once so the
// short NVE runs start thermally calm.
var diffOnce struct {
	sync.Once
	sys *gonamd.System
	st  *gonamd.State
}

func diffSystem(t *testing.T) (*gonamd.System, *gonamd.State, *gonamd.ForceField) {
	t.Helper()
	ff := gonamd.StandardForceField(7.0)
	diffOnce.Do(func() {
		sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(16, 42))
		if err != nil {
			panic(err)
		}
		m, err := gonamd.NewSequential(sys, ff, st)
		if err != nil {
			panic(err)
		}
		m.Minimize(100, 0.2)
		diffOnce.sys, diffOnce.st = sys, st
	})
	return diffOnce.sys, diffOnce.st.Clone(), ff
}

func snapshot(f []gonamd.V3) []gonamd.V3 { return append([]gonamd.V3(nil), f...) }

// maxForceErr returns the worst per-atom |Δf| and the largest |f| of want.
func maxForceErr(got, want []gonamd.V3) (worst, scale float64) {
	for i := range want {
		worst = math.Max(worst, got[i].Sub(want[i]).Norm())
		scale = math.Max(scale, want[i].Norm())
	}
	return worst, scale
}

// closestContact2 is the smallest squared separation of any non-excluded
// pair — where the table's h³/x³ interpolation error peaks.
func closestContact2(sys *gonamd.System, st *gonamd.State) float64 {
	x := math.Inf(1)
	for i := int32(0); i < int32(sys.N()); i++ {
		for j := i + 1; j < int32(sys.N()); j++ {
			if sys.Classify(i, j) == topology.PairExcluded {
				continue
			}
			x = math.Min(x, gonamd.MinImage(st.Pos[i], st.Pos[j], sys.Box).Norm2())
		}
	}
	return x
}

func TestDifferentialPipelineConformance(t *testing.T) {
	sys, st, ff := diffSystem(t)
	const steps, dt = 8, 0.5

	configs := []pipelineConfig{referencePath}
	for _, mn := range [][2]int{{4, 4}, {4, 8}, {8, 8}} {
		for _, w := range []int{0, 1, 2, 4, 8} {
			configs = append(configs, pipelineConfig{w, mn[0], mn[1]})
		}
	}
	x2 := closestContact2(sys, st)

	for _, mode := range []elecMode{{"shifted", 0}, {"pme-mts1", 1}, {"pme-mts2", 2}} {
		// The oracle: an O(N²) double loop through the scalar kernel — for
		// PME the analytic erfc real-space term, which is what the
		// engines' fast forces are — and, for the reciprocal forces, the
		// reference engine (validated against direct Ewald summation in
		// TestPMEDifferentialVsDirectEwald).
		oracleFF := ff
		var oracleRecip []gonamd.V3
		if mode.mts > 0 {
			oracleFF = ff.WithEwald(pmeBeta)
			oracleRecip = snapshot(referencePath.build(t, sys, ff, st.Clone(), mode).RecipForces())
		}
		oracleF, oracleEn := seq.BruteForce(sys, oracleFF, st)
		_, fScale := maxForceErr(oracleF, oracleF)

		// What the seq-cluster row of each geometry produced, for the
		// par1-cluster row that follows it: one engine under two names.
		type rowResult struct {
			en  gonamd.Energies
			f   []gonamd.V3
			end *gonamd.State
		}
		seqRows := map[[2]int]rowResult{}

		for _, cfg := range configs {
			t.Run(mode.name+"/"+cfg.String(), func(t *testing.T) {
				tabulated := mode.mts > 0 && !cfg.reference()

				// Analytic forces and energies against the oracle, at the
				// tolerance every engine has always been held to.
				analytic := func(what string, en gonamd.Energies, f []gonamd.V3) {
					t.Helper()
					if d := math.Abs(en.VdW + en.Elec - oracleEn.VdW - oracleEn.Elec); d > 1e-7*(1+math.Abs(oracleEn.VdW+oracleEn.Elec)) {
						t.Errorf("%s: nonbonded energy off by %g (%v vs oracle %v)", what, d, en.VdW+en.Elec, oracleEn.VdW+oracleEn.Elec)
					}
					for i := range f {
						if d := f[i].Sub(oracleF[i]).Norm(); d > 1e-7*(1+oracleF[i].Norm()) {
							t.Fatalf("%s: force on atom %d off by %g (%v vs oracle %v)", what, i, d, f[i], oracleF[i])
						}
					}
				}

				eng := cfg.build(t, sys, ff, st.Clone(), mode)
				en := eng.ComputeForces()
				prod := snapshot(eng.Forces())
				if mode.mts > 0 && !reflect.DeepEqual(eng.RecipForces(), oracleRecip) {
					t.Error("reciprocal forces not bitwise identical to the reference engine's")
				}
				switch {
				case cfg.reference():
					analytic("reference path", en, prod)
				case !tabulated:
					// Analytic cluster kernel: within tolerance of the oracle
					// and bitwise equal to its scalar replay over the same
					// list.
					analytic("cluster kernel", en, prod)
					eng.UseReferenceClusterKernel(true)
					eng.ComputeForces()
					if !reflect.DeepEqual(prod, eng.Forces()) {
						t.Error("optimized kernel not bitwise identical to NonbondedClusterRef through the engine")
					}
				default:
					// Tabulated Ewald kernel: the analytic replay over the same
					// list meets the oracle; the table's van der Waals energy
					// is bitwise the replay's, and its forces and energy track
					// it within the cubic spline's a-priori h³/x³ bound at the
					// closest contact (the per-pair coefficient
					// FuzzInteractionTable pins; ~10× the measured error).
					eng.UseReferenceClusterKernel(true)
					enRef := eng.ComputeForces()
					analytic("scalar replay of the cluster list", enRef, eng.Forces())
					if en.VdW != enRef.VdW {
						t.Errorf("tabulated vdW energy %v, analytic replay %v: want bitwise", en.VdW, enRef.VdW)
					}
					h := ff.Cutoff * ff.Cutoff / forcefield.DefaultTableBins
					bound := math.Pow(h/x2, 3) + math.Pow(pmeBeta*pmeBeta*h, 3)
					if worst, _ := maxForceErr(prod, eng.Forces()); worst > bound*fScale {
						t.Errorf("tabulated force error %.3g of the force scale exceeds %.3g", worst/fScale, bound)
					}
					if d := math.Abs(en.Elec - enRef.Elec); d > bound*(1+math.Abs(enRef.VdW+enRef.Elec)) {
						t.Errorf("tabulated nonbonded energy off by %g", d)
					}
				}

				// Bitwise run-to-run repeat, and a short NVE run whose
				// total energy stays within 2 % of the kinetic energy
				// (sampled at MTS cycle ends, where the impulse scheme's
				// reported energy is its conserved one).
				run := func() *gonamd.State {
					s := st.Clone()
					e := cfg.build(t, sys, ff, s, mode)
					e0, kin := e.Energies().Total(), e.Energies().Kinetic
					for i := 1; i <= steps; i++ {
						e.Step(dt)
						if mode.mts > 0 && i%mode.mts != 0 {
							continue
						}
						if d := math.Abs(e.Energies().Total() - e0); d > 0.02*kin {
							t.Fatalf("step %d: total energy moved %.4f kcal/mol, over 2%% of the kinetic %.2f", i, d, kin)
						}
					}
					return s
				}
				a, b := run(), run()
				if !reflect.DeepEqual(a.Pos, b.Pos) || !reflect.DeepEqual(a.Vel, b.Vel) {
					t.Error("trajectory not bitwise reproducible run to run")
				}

				// NewSequential is NewParallel with one worker: the same
				// forces, energies and trajectory, bit for bit.
				switch geom := [2]int{cfg.m, cfg.n}; cfg.workers {
				case 0:
					seqRows[geom] = rowResult{en, prod, a}
				case 1:
					want := seqRows[geom]
					if en != want.en {
						t.Errorf("energies not bitwise the seq-cluster row's: %v vs %v", en, want.en)
					}
					if !reflect.DeepEqual(prod, want.f) {
						t.Error("forces not bitwise the seq-cluster row's")
					}
					if !reflect.DeepEqual(a.Pos, want.end.Pos) || !reflect.DeepEqual(a.Vel, want.end.Vel) {
						t.Errorf("%d-step trajectory not bitwise the seq-cluster row's", steps)
					}
				}

				// Rebuild versus replay. At more than one worker the static
				// task assignment comes from the binning at construction,
				// which differs between a warm and a fresh engine and
				// permutes the reduction order, so the comparison is for the
				// sequential engine and one parallel worker.
				if !cfg.reference() && cfg.workers <= 1 {
					checkRebuildVsReplay(t, func(s *gonamd.State) pipelineEngine { return cfg.build(t, sys, ff, s, mode) }, st)
				}
			})
		}
	}
}

// checkRebuildVsReplay: a warm engine (cached cluster list, reused
// builder scratch, replayed steps behind it) that is forced to rebuild
// must continue bitwise identically to a fresh engine built at the same
// positions — the cluster list is a pure function of the positions and no
// hidden state leaks from cached-replay steps into rebuilds. (Lists built
// at *different* positions legitimately differ in accumulation order, so
// that is the strongest bitwise statement there is; see DESIGN.md,
// "Nonbonded pipeline".)
func checkRebuildVsReplay(t *testing.T, mk func(*gonamd.State) pipelineEngine, st *gonamd.State) {
	t.Helper()
	aSt := st.Clone()
	warm := mk(aSt)
	warm.ComputeForces() // first build
	if warm.ClusterRebuilds() != 1 {
		t.Fatalf("expected first evaluation to build, got %d builds", warm.ClusterRebuilds())
	}
	// Jiggle within the drift bound: these evaluations must replay the
	// cached list, leaving warm scratch and guard history behind.
	for k := 0; k < 3; k++ {
		for i := range aSt.Pos {
			aSt.Pos[i] = aSt.Pos[i].Add(gonamd.V3{X: 1e-3, Y: -1e-3, Z: 1e-3})
		}
		warm.Invalidate()
		warm.ComputeForces()
	}
	if warm.ClusterRebuilds() != 1 {
		t.Fatalf("jiggles were meant to replay, got %d builds", warm.ClusterRebuilds())
	}
	// Kick one atom past skin/2: the next evaluation must rebuild.
	aSt.Pos[0] = aSt.Pos[0].Add(gonamd.V3{X: 2, Y: 0, Z: 0})
	warm.Invalidate()
	warm.ComputeForces()
	if warm.ClusterRebuilds() != 2 {
		t.Fatalf("kick was meant to rebuild, got %d builds", warm.ClusterRebuilds())
	}
	warmF := snapshot(warm.Forces())

	// A fresh engine built at the identical positions must produce the
	// warm engine's rebuild bitwise, and continue bitwise under dynamics
	// (same list, same rebuild schedule).
	bSt := aSt.Clone()
	fresh := mk(bSt)
	fresh.ComputeForces()
	if !reflect.DeepEqual(warmF, fresh.Forces()) {
		t.Error("warm rebuild not bitwise identical to fresh build")
	}
	for i := 0; i < 4; i++ {
		warm.Step(0.5)
		fresh.Step(0.5)
	}
	if !reflect.DeepEqual(aSt.Pos, bSt.Pos) || !reflect.DeepEqual(aSt.Vel, bSt.Vel) {
		t.Error("trajectories diverged bitwise after the shared rebuild")
	}
}

// TestDifferentialClusterTrajectories: short dynamics on every cluster
// configuration stay within 1e-6 Å of the reference path's trajectory
// under the shifted cutoff (same analytic interaction, different
// summation order).
func TestDifferentialClusterTrajectories(t *testing.T) {
	sys, st, ff := diffSystem(t)
	const steps = 10
	refSt := st.Clone()
	referencePath.build(t, sys, ff, refSt, elecMode{}).Run(steps, 0.5)
	for _, w := range []int{0, 1, 2, 4, 8} {
		s := st.Clone()
		cfg := pipelineConfig{w, 4, 8}
		cfg.build(t, sys, ff, s, elecMode{}).Run(steps, 0.5)
		if worst, _ := maxForceErr(s.Pos, refSt.Pos); worst > 1e-6 {
			t.Errorf("%v drifted %v Å from the reference trajectory", cfg, worst)
		}
	}
}

// TestClusterTabForceAccuracyApoA1: on the ApoA-I benchmark box, the
// tabulated kernel's per-atom forces must track the analytic replay of
// the same cluster list within 5e-8 of the configuration's force scale
// at the default table spacing (measured 5e-9), its van der Waals energy
// bitwise and its electrostatic energy within 1e-9 — the production half
// of the accuracy envelope (the spacing → error sweep lives in
// internal/forcefield's TestInteractionTableAccuracySweep).
func TestClusterTabForceAccuracyApoA1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the ApoA-I box")
	}
	sys, st, err := gonamd.BuildSystem(gonamd.ApoA1Spec())
	if err != nil {
		t.Fatal(err)
	}
	ff := gonamd.StandardForceField(9.0)
	// Relax the as-built contacts first: the synthetic structure starts
	// on near-singular r⁻¹² clashes, pairs far closer than any thermally
	// accessible separation, where the table's h³/x³ interpolation error
	// of the Coulomb term peaks.
	m, err := gonamd.NewSequential(sys, ff, st, gonamd.WithClusterLists(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	m.Minimize(60, 0.2)

	e, err := gonamd.NewSequential(sys, ff.WithEwald(3.12/ff.Cutoff), st.Clone(), gonamd.WithClusterLists(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	enT := e.ComputeForces()
	tabF := snapshot(e.Forces())
	e.UseReferenceClusterKernel(true)
	enA := e.ComputeForces()

	// Relative to the force scale of the configuration: per-atom
	// absolute errors on near-cancelling small forces are meaningless.
	if worst, scale := maxForceErr(tabF, e.Forces()); worst > 5e-8*scale {
		t.Errorf("worst per-atom force error %.3g of the force scale exceeds the 5e-8 bound", worst/scale)
	}
	if enT.VdW != enA.VdW {
		t.Errorf("vdW energy %v, analytic replay %v: want bitwise", enT.VdW, enA.VdW)
	}
	if d := math.Abs(enT.Elec-enA.Elec) / (1 + math.Abs(enA.Elec)); d > 1e-9 {
		t.Errorf("elec energy relative error %.3g exceeds 1e-9 (%.6f vs %.6f)", d, enT.Elec, enA.Elec)
	}
}

// TestClusterNVEDrift: 500 steps of NVE dynamics on the cluster path —
// analytic under the shifted cutoff, tabulated under PME with a 4-step
// MTS reciprocal schedule — must conserve total energy within 2 % of the
// kinetic energy. For the table this is the property the Hermite
// construction buys: the interpolated force is the exact derivative of
// the interpolated energy, so the tabulated field is conservative by
// construction and interpolation error cannot pump energy.
func TestClusterNVEDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("long NVE run")
	}
	for _, mode := range []elecMode{{"shifted", 0}, {"pme-mts4", 4}} {
		sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(12, 11))
		if err != nil {
			t.Fatal(err)
		}
		ff := gonamd.StandardForceField(5.5)
		m, err := gonamd.NewSequential(sys, ff, st)
		if err != nil {
			t.Fatal(err)
		}
		m.Minimize(200, 0.2)

		opts := []gonamd.Option{gonamd.WithClusterLists(4, 8)}
		every := 1
		if mode.mts > 0 {
			opts = append(opts, gonamd.WithPME(0.5, 0.55, mode.mts))
			every = mode.mts
		}
		e, err := gonamd.NewSequential(sys, ff, st, opts...)
		if err != nil {
			t.Fatal(err)
		}
		e0 := e.Energies().Total()
		kin := e.Energies().Kinetic
		worst := 0.0
		for s := 1; s <= 500; s++ {
			e.Step(0.5)
			if s%every == 0 {
				worst = math.Max(worst, math.Abs(e.Energies().Total()-e0))
			}
		}
		if e.ClusterRebuilds() < 2 {
			t.Fatalf("%s: run exercised %d list rebuilds, want ≥ 2", mode.name, e.ClusterRebuilds())
		}
		if bound := 0.02 * kin; worst > bound {
			t.Fatalf("%s: NVE drift %.4f kcal/mol exceeds bound %.4f (kinetic %.2f)", mode.name, worst, bound, kin)
		}
	}
}
