package core

import (
	"maps"
	"math"
	"sync"
	"testing"

	"gonamd/internal/ldb"
	"gonamd/internal/machine"
	"gonamd/internal/molgen"
	"gonamd/internal/projections"
	"gonamd/internal/spatial"
	"gonamd/internal/topology"
	"gonamd/internal/trace"
	"gonamd/internal/vec"
	"gonamd/internal/xrand"
)

// testWorkload builds a small shared workload (~3000 atoms, 3×3×3
// patches) once for all tests in this package.
var (
	wlOnce  sync.Once
	wl      *Workload
	wlSys   *topology.System
	wlSt    *topology.State
	wlModel machine.Model
)

func testWorkload(t *testing.T) (*Workload, machine.Model) {
	t.Helper()
	wlOnce.Do(func() {
		spec := molgen.Spec{
			Name:          "coretest",
			Box:           vec.New(39, 39, 39),
			TargetAtoms:   3000,
			ProteinChains: 1,
			ChainResidues: 25,
			LipidCount:    4,
			LipidTailLen:  8,
			Seed:          7,
		}
		sys, st, err := molgen.Build(spec)
		if err != nil {
			panic(err)
		}
		grid, err := spatial.NewGrid(sys.Box, 12.0)
		if err != nil {
			panic(err)
		}
		w, err := BuildWorkload("coretest", sys, st, grid, 12.0, 13.5)
		if err != nil {
			panic(err)
		}
		wl, wlSys, wlSt = w, sys, st
		wlModel = machine.Calibrate("test-ascired", 1.0, machine.ASCIRed().Net, w.Counts())
	})
	return wl, wlModel
}

func TestWorkloadPairCountsMatchBruteForce(t *testing.T) {
	w, _ := testWorkload(t)
	// Brute-force O(N²) census of distinct pairs within cutoff/listdist,
	// attributed to the patch pair (or the patch) of their two atoms.
	pairIdx := map[[2]int]int{}
	for i, pr := range w.Pairs {
		pairIdx[[2]int{min(pr[0], pr[1]), max(pr[0], pr[1])}] = i
	}
	self := make([]PairCount, len(w.Self))
	pairs := make([]PairCount, len(w.PairCounts))
	var stray int64 // listed pairs between patches that are not neighbors
	cut2 := w.Cutoff * w.Cutoff
	list2 := w.ListDist * w.ListDist
	n := wlSys.N()
	patch := make([]int, n)
	for i, p := range wlSt.Pos {
		patch[i] = w.Grid.PatchOf(p)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r2 := vec.MinImage(wlSt.Pos[i], wlSt.Pos[j], wlSys.Box).Norm2()
			if r2 >= list2 {
				continue
			}
			var c *PairCount
			if a, b := patch[i], patch[j]; a == b {
				c = &self[a]
			} else if k, ok := pairIdx[[2]int{min(a, b), max(a, b)}]; ok {
				c = &pairs[k]
			} else {
				stray++
				continue
			}
			c.Listed++
			if r2 < cut2 {
				c.Within++
			}
		}
	}
	if stray != 0 {
		t.Errorf("%d listed pairs between non-neighbor patches", stray)
	}
	for p, c := range self {
		if w.Self[p] != c {
			t.Errorf("Self[%d] = %+v, brute force %+v", p, w.Self[p], c)
		}
	}
	for k, c := range pairs {
		if w.PairCounts[k] != c {
			t.Errorf("PairCounts[%d] (patches %v) = %+v, brute force %+v", k, w.Pairs[k], w.PairCounts[k], c)
		}
	}
}

func TestWorkloadBondedTermsComplete(t *testing.T) {
	w, _ := testWorkload(t)
	total := 0
	for _, n := range w.IntraTerms {
		total += n
	}
	for _, g := range w.InterGroups {
		total += g.Terms
	}
	if total != wlSys.NumBondedTerms() {
		t.Errorf("workload bonded terms = %d, system has %d", total, wlSys.NumBondedTerms())
	}
	// Inter groups must reference at least two patches including base.
	for _, g := range w.InterGroups {
		if len(g.Patches) < 2 {
			t.Errorf("inter group at base %d has %d patches", g.Base, len(g.Patches))
		}
		found := false
		for _, p := range g.Patches {
			if p == g.Base {
				found = true
			}
		}
		if !found {
			t.Errorf("inter group at base %d does not include base", g.Base)
		}
	}
}

func TestWorkloadAtomsConserved(t *testing.T) {
	w, _ := testWorkload(t)
	total := 0
	for _, n := range w.PatchAtoms {
		total += n
	}
	if total != w.TotalAtoms {
		t.Errorf("patch atoms sum to %d, want %d", total, w.TotalAtoms)
	}
}

func TestCalibrationReproducesTable1Ideal(t *testing.T) {
	w, m := testWorkload(t)
	c := w.Counts()
	// The ASCI-Red model is calibrated on these counts, so the
	// sequential decomposition must reproduce Table 1's Ideal row.
	if got := m.NonbondedTime(c); math.Abs(got-52.44) > 1e-9 {
		t.Errorf("nonbonded seq time = %v, want 52.44", got)
	}
	if got := m.BondedTime(c); math.Abs(got-3.16) > 1e-9 {
		t.Errorf("bonded seq time = %v, want 3.16", got)
	}
	if got := m.IntegrationTime(c); math.Abs(got-1.44) > 1e-9 {
		t.Errorf("integration seq time = %v, want 1.44", got)
	}
	if got := m.SeqTime(c); math.Abs(got-57.04) > 1e-6 {
		t.Errorf("total seq time = %v, want 57.04", got)
	}
	// And the implied single-CPU GFLOPS is the paper's 0.048.
	if got := m.GFLOPS(c, m.SeqTime(c)); math.Abs(got-0.0480) > 0.001 {
		t.Errorf("1-CPU GFLOPS = %v, want ≈ 0.0480", got)
	}
}

func runSim(t *testing.T, cfg Config) *Result {
	t.Helper()
	w, m := testWorkload(t)
	cfg.Model = m
	sim, err := NewSim(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Run()
}

func TestSingleProcessor(t *testing.T) {
	res := runSim(t, Config{PEs: 1, GrainSplit: true, SplitBonded: true, MulticastOpt: true})
	// One PE: step time = sequential work + local scheduling overheads,
	// which must be small (a few percent).
	if res.AvgStep < res.SeqTime {
		t.Errorf("1-PE step %.3f faster than sequential %.3f", res.AvgStep, res.SeqTime)
	}
	if res.AvgStep > 1.1*res.SeqTime {
		t.Errorf("1-PE step %.3f has > 10%% overhead over sequential %.3f", res.AvgStep, res.SeqTime)
	}
	if res.MaxProxiesPerPatch != 0 {
		t.Errorf("1-PE run created %d proxies", res.MaxProxiesPerPatch)
	}
}

func TestSpeedupSanity(t *testing.T) {
	base := runSim(t, Config{PEs: 1, GrainSplit: true, SplitBonded: true, MulticastOpt: true})
	prev := base.AvgStep
	for _, pes := range []int{4, 16} {
		res := runSim(t, Config{PEs: pes, GrainSplit: true, SplitBonded: true, MulticastOpt: true})
		speedup := base.AvgStep / res.AvgStep
		if speedup < 0.7*float64(pes) || speedup > float64(pes) {
			t.Errorf("%d PEs: speedup %.2f outside (%.1f, %d]", pes, speedup, 0.7*float64(pes), pes)
		}
		if res.AvgStep >= prev {
			t.Errorf("%d PEs not faster than fewer PEs: %.4f >= %.4f", pes, res.AvgStep, prev)
		}
		prev = res.AvgStep
	}
}

func TestAtMostSevenProxiesAfterStaticPlacement(t *testing.T) {
	// With as many PEs as patches and no load balancing, the upstream
	// placement rule must give each patch at most 7 proxies (paper §3.2).
	w, m := testWorkload(t)
	np := w.Grid.NumPatches()
	sim, err := NewSim(w, Config{
		PEs: np, Model: m, GrainSplit: true, SplitBonded: true, MulticastOpt: true,
		LB: ldb.NoOp{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range sim.ProxiesPerPatch() {
		if n > 7 {
			t.Errorf("patch %d has %d proxies after static placement, want ≤ 7", p, n)
		}
	}
	res := sim.Run()
	if res.MaxProxiesPerPatch > 7 {
		t.Errorf("max proxies = %d", res.MaxProxiesPerPatch)
	}
}

func TestLoadBalancingImproves(t *testing.T) {
	pes := 16
	static := runSim(t, Config{PEs: pes, GrainSplit: true, SplitBonded: true, MulticastOpt: true, LB: ldb.NoOp{}})
	balanced := runSim(t, Config{PEs: pes, GrainSplit: true, SplitBonded: true, MulticastOpt: true})
	if balanced.AvgStep >= static.AvgStep {
		t.Errorf("LB did not improve: static %.4f vs balanced %.4f", static.AvgStep, balanced.AvgStep)
	}
	if len(balanced.LBStats) != 2 {
		t.Fatalf("expected 2 balancing passes, got %d", len(balanced.LBStats))
	}
}

func TestGrainsizeSplitting(t *testing.T) {
	w, m := testWorkload(t)
	mkSim := func(split bool) *Sim {
		sim, err := NewSim(w, Config{
			PEs: 8, Model: m, GrainSplit: split, SplitBonded: true,
			MulticastOpt: true, CollectTrace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	before := mkSim(false).Run()
	after := mkSim(true).Run()
	if after.NumComputes <= before.NumComputes {
		t.Errorf("splitting did not increase object count: %d -> %d", before.NumComputes, after.NumComputes)
	}
	maxGrain := func(r *Result) float64 {
		h := projections.DurationHistogram(r.Trace, 1e-3, func(rec trace.ExecRecord) bool {
			for _, sp := range rec.Spans {
				if sp.Cat == trace.CatNonbonded {
					return true
				}
			}
			return false
		})
		return h.MaxVal
	}
	gb, ga := maxGrain(before), maxGrain(after)
	if ga >= gb {
		t.Errorf("splitting did not reduce max grainsize: %.4f -> %.4f", gb, ga)
	}
	// Split pieces should respect the target grain (plus overheads).
	target := 5e-3 * m.CPUFactor
	if ga > 2*target {
		t.Errorf("max grainsize %.4f far above target %.4f", ga, target)
	}
}

func TestDeterministicResults(t *testing.T) {
	a := runSim(t, Config{PEs: 8, GrainSplit: true, SplitBonded: true, MulticastOpt: true})
	b := runSim(t, Config{PEs: 8, GrainSplit: true, SplitBonded: true, MulticastOpt: true})
	if a.AvgStep != b.AvgStep {
		t.Errorf("same config produced different step times: %v vs %v", a.AvgStep, b.AvgStep)
	}
	if a.TotalMsgs != b.TotalMsgs {
		t.Errorf("message counts differ: %d vs %d", a.TotalMsgs, b.TotalMsgs)
	}
}

func TestEveryComputeRunsEveryStep(t *testing.T) {
	w, m := testWorkload(t)
	sim, err := NewSim(w, Config{
		PEs: 4, Model: m, GrainSplit: false, SplitBonded: true,
		MulticastOpt: true, LB: ldb.NoOp{}, MeasureSteps: 3, CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	steps := 4 // MeasureSteps + 1
	worked := 0
	for _, rec := range res.Trace.Records {
		for _, sp := range rec.Spans {
			if sp.Cat == trace.CatNonbonded || sp.Cat == trace.CatBonded {
				worked++
				break
			}
		}
	}
	want := res.NumComputes * steps
	if worked != want {
		t.Errorf("compute executions = %d, want %d (%d computes × %d steps)", worked, want, res.NumComputes, steps)
	}
}

func TestMulticastOptimizationHelps(t *testing.T) {
	// At high PE counts the naive multicast penalizes the integration
	// critical path (Figures 3-4).
	w, m := testWorkload(t)
	run := func(opt bool) *Result {
		sim, err := NewSim(w, Config{
			PEs: 27, Model: m, GrainSplit: true, SplitBonded: true, MulticastOpt: opt,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	naive := run(false)
	opt := run(true)
	if opt.AvgStep >= naive.AvgStep {
		t.Errorf("multicast optimization did not help: %.5f -> %.5f", naive.AvgStep, opt.AvgStep)
	}
}

func TestMeasuredAudit(t *testing.T) {
	res := runSim(t, Config{PEs: 8, GrainSplit: true, SplitBonded: true, MulticastOpt: true, CollectTrace: true})
	audit, err := res.MeasuredAudit()
	if err != nil {
		t.Fatal(err)
	}
	// Components must sum to the total (Idle is the remainder).
	sum := audit.Nonbonded + audit.Bonded + audit.Integration + audit.Overhead +
		audit.Receives + audit.Imbalance + audit.Idle
	if math.Abs(sum-audit.Total) > 0.05*audit.Total {
		t.Errorf("audit components sum to %.4f, total %.4f", sum, audit.Total)
	}
	// Nonbonded should dominate.
	if audit.Nonbonded < audit.Bonded || audit.Nonbonded < audit.Integration {
		t.Errorf("nonbonded %.4f not dominant (bonded %.4f, integration %.4f)",
			audit.Nonbonded, audit.Bonded, audit.Integration)
	}
	ideal := IdealAudit(&wlModel, res.Counts, 8)
	if math.Abs(ideal.Total-res.SeqTime/8) > 1e-9 {
		t.Errorf("ideal total = %v, want %v", ideal.Total, res.SeqTime/8)
	}
	if len(audit.String()) == 0 || len(ideal.String()) == 0 {
		t.Error("empty audit string")
	}
	// No-trace result must error.
	noTrace := runSim(t, Config{PEs: 4, GrainSplit: true, SplitBonded: true, MulticastOpt: true})
	if _, err := noTrace.MeasuredAudit(); err == nil {
		t.Error("MeasuredAudit without trace did not error")
	}
}

func TestConfigValidation(t *testing.T) {
	w, m := testWorkload(t)
	if _, err := NewSim(w, Config{PEs: 0, Model: m}); err == nil {
		t.Error("PEs=0 accepted")
	}
}

func TestBuildWorkloadValidation(t *testing.T) {
	_, _ = testWorkload(t)
	grid, _ := spatial.NewGrid(wlSys.Box, 12.0)
	if _, err := BuildWorkload("bad", wlSys, wlSt, grid, 12.0, 10.0); err == nil {
		t.Error("listDist < cutoff accepted")
	}
}

func TestMigrationPreservesMessageFlow(t *testing.T) {
	// After the two balancing passes rewire proxies, every compute must
	// still execute exactly once per step.
	w, m := testWorkload(t)
	sim, err := NewSim(w, Config{
		PEs: 12, Model: m, SplitSelf: true, GrainSplit: true, SplitBonded: true,
		MulticastOpt: true, CollectTrace: true,
		WarmSteps: 2, RefineSteps: 2, MeasureSteps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	// Across the whole run — spanning both migrations and rewirings —
	// every compute must have executed exactly once per step.
	worked := 0
	for _, rec := range res.Trace.Records {
		for _, sp := range rec.Spans {
			if sp.Cat == trace.CatNonbonded || sp.Cat == trace.CatBonded {
				worked++
				break
			}
		}
	}
	totalSteps := 2 + 2 + 3 + 1 // warm + refine + measure + 1
	if worked != res.NumComputes*totalSteps {
		t.Errorf("compute executions = %d, want %d (%d × %d)",
			worked, res.NumComputes*totalSteps, res.NumComputes, totalSteps)
	}
	// The balancer really moved things: some proxies were created beyond
	// the static ≤7 set or the imbalance stats exist.
	if len(res.LBStats) != 2 {
		t.Fatalf("LB passes = %d", len(res.LBStats))
	}
	if res.LBStats[0].Proxies == 0 {
		t.Error("no proxies after greedy pass — implausible for 12 PEs")
	}
}

func TestStepAccounting(t *testing.T) {
	res := runSim(t, Config{PEs: 6, SplitSelf: true, GrainSplit: true,
		SplitBonded: true, MulticastOpt: true, MeasureSteps: 5})
	if len(res.StepDurations) != 5 {
		t.Fatalf("measured %d steps, want 5", len(res.StepDurations))
	}
	for i, d := range res.StepDurations {
		if d <= 0 {
			t.Errorf("step %d duration %v", i, d)
		}
	}
	if res.MeasureT1 <= res.MeasureT0 {
		t.Errorf("measure window [%v, %v)", res.MeasureT0, res.MeasureT1)
	}
	var sum float64
	for _, d := range res.StepDurations {
		sum += d
	}
	if math.Abs(sum-(res.MeasureT1-res.MeasureT0)) > 1e-9 {
		t.Errorf("durations sum %v != window %v", sum, res.MeasureT1-res.MeasureT0)
	}
}

func TestAsymmetricGridWorkload(t *testing.T) {
	// A bR-shaped box: 4×3×3 patches with periodic wrap on dims of 3.
	spec := molgen.Spec{
		Name:        "asym",
		Box:         vec.New(48.8, 36.6, 36.6),
		TargetAtoms: 2500,
		Seed:        13,
	}
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := spatial.NewGridDims(sys.Box, [3]int{4, 3, 3}, 12.0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorkload("asym", sys, st, grid, 12.0, 13.5)
	if err != nil {
		t.Fatal(err)
	}
	// Pair counting must agree with brute force even under heavy wrap.
	var within int64
	for i := 0; i < sys.N(); i++ {
		for j := i + 1; j < sys.N(); j++ {
			if vec.MinImage(st.Pos[i], st.Pos[j], sys.Box).Norm2() < 144 {
				within++
			}
		}
	}
	if c := w.Counts(); c.Pairs != within {
		t.Errorf("asymmetric grid Pairs = %d, brute force %d", c.Pairs, within)
	}
	model := machine.Calibrate("t", 1, machine.ASCIRed().Net, w.Counts())
	for _, pes := range []int{1, 5, 36, 72} {
		sim, err := NewSim(w, Config{
			PEs: pes, Model: model, SplitSelf: true, GrainSplit: true,
			SplitBonded: true, MulticastOpt: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Run()
		if res.AvgStep <= 0 {
			t.Errorf("%d PEs: step %v", pes, res.AvgStep)
		}
	}
}

func TestMorePEsNeverDeadlocks(t *testing.T) {
	// More PEs than patches: round-robin patch placement, most PEs
	// initially empty — the LB must still fill them and the run complete.
	res := runSim(t, Config{PEs: 64, SplitSelf: true, GrainSplit: true,
		SplitBonded: true, MulticastOpt: true}) // the shared 27-patch workload
	if res.AvgStep <= 0 {
		t.Fatal("no progress")
	}
	speedup := res.SeqTime / res.AvgStep
	if speedup < 20 {
		t.Errorf("64-PE speedup %.1f for 27-patch system — LB failed to spread work", speedup)
	}
}

func TestPeriodicRefinementTracksSlowDrift(t *testing.T) {
	// The paper: "Periodically thereafter, the refinement procedure is
	// repeated to account for the slow changes of the simulation."
	// With drifting loads and NO periodic refinement the step time
	// degrades; with it, the degradation is contained.
	w, m := testWorkload(t)
	run := func(refine bool) []float64 {
		sim, err := NewSim(w, Config{
			PEs: 16, Model: m, SplitSelf: true, GrainSplit: true,
			SplitBonded: true, MulticastOpt: true,
			WarmSteps: 2, RefineSteps: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.SetLoadDrift(0.01) // 1% of work migrates per step
		return sim.RunDrift(6, 8, refine)
	}
	frozen := run(false)
	refined := run(true)
	if len(frozen) != 6 || len(refined) != 6 {
		t.Fatalf("epochs = %d/%d", len(frozen), len(refined))
	}
	// Frozen mapping: last epoch notably slower than the first.
	degrade := frozen[len(frozen)-1] / frozen[0]
	if degrade < 1.08 {
		t.Errorf("frozen mapping degraded only %.3f× under drift — drift too weak to test", degrade)
	}
	// Periodic refinement: final epoch clearly faster than frozen's.
	if refined[len(refined)-1] >= frozen[len(frozen)-1]*0.97 {
		t.Errorf("periodic refine %.4f not better than frozen %.4f",
			refined[len(refined)-1], frozen[len(frozen)-1])
	}
}

// TestStepCounterMatchesMap: the arrival counter behaves exactly like the
// map it replaced (count, compare with need, delete when reached) for any
// key order and need, including needs of 0 and 1 and counts that
// overshoot, and survives the snapshot's map form.
func TestStepCounterMatchesMap(t *testing.T) {
	rng := xrand.New(5)
	var c stepCounter
	ref := map[int]int{}
	for i := 0; i < 20000; i++ {
		key, need := rng.Intn(6), rng.Intn(5)
		ref[key]++
		want := ref[key] >= need
		if want {
			delete(ref, key)
		}
		if got := c.arrive(key, need); got != want {
			t.Fatalf("arrival %d (key %d, need %d): counter says %v, map %v", i, key, need, got, want)
		}
		if i%97 == 0 {
			c = gotCounter(gotMap(c))
		}
	}
	if got := gotMap(c); !maps.Equal(got, ref) {
		t.Fatalf("counter holds %v, map %v", got, ref)
	}
}
