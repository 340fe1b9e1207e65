package ldb

import (
	"testing"
	"testing/quick"

	"gonamd/internal/xrand"
)

// randomProblem builds a problem with objects clustered on few PEs, the
// typical post-static-placement situation.
func randomProblem(seed uint64, npe, npatch, nobj int) *Problem {
	rng := xrand.New(seed)
	p := &Problem{NumPE: npe, NumPatches: npatch}
	p.PatchHome = make([]int, npatch)
	for t := range p.PatchHome {
		p.PatchHome[t] = t % npe
	}
	p.Background = make([]float64, npe)
	for pe := range p.Background {
		p.Background[pe] = rng.Range(0, 1e-4)
	}
	for i := 0; i < nobj; i++ {
		o := Object{
			Load:       rng.Range(1e-4, 5e-3),
			Migratable: rng.Float64() < 0.9,
			PE:         rng.Intn(max(1, npe/4)), // clustered start
		}
		np := 1 + rng.Intn(2)
		for k := 0; k < np; k++ {
			pt := rng.Intn(npatch)
			// Validate rejects duplicate refs within one object.
			if k > 0 && pt == o.Patches[0] {
				pt = (pt + 1) % npatch
			}
			o.Patches = append(o.Patches, pt)
		}
		p.Objects = append(p.Objects, o)
	}
	return p
}

func checkAssignment(t *testing.T, p *Problem, assign []int, strategy string) {
	t.Helper()
	if len(assign) != len(p.Objects) {
		t.Fatalf("%s: assignment length %d, want %d", strategy, len(assign), len(p.Objects))
	}
	for i, pe := range assign {
		if pe < 0 || pe >= p.NumPE {
			t.Fatalf("%s: object %d assigned to invalid PE %d", strategy, i, pe)
		}
		if !p.Objects[i].Migratable && pe != p.Objects[i].PE {
			t.Fatalf("%s: non-migratable object %d moved from %d to %d", strategy, i, p.Objects[i].PE, pe)
		}
	}
}

func TestValidate(t *testing.T) {
	p := randomProblem(1, 4, 8, 20)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := *p
	bad.NumPE = 0
	if bad.Validate() == nil {
		t.Error("NumPE=0 accepted")
	}
	bad = *p
	bad.PatchHome = []int{0}
	if bad.Validate() == nil {
		t.Error("short PatchHome accepted")
	}
	bad = *p
	bad.Objects = append([]Object{}, p.Objects...)
	bad.Objects[0].PE = 99
	if bad.Validate() == nil {
		t.Error("bad object PE accepted")
	}
	bad = *p
	bad.Objects = append([]Object{}, p.Objects...)
	bad.Objects[0].Load = -1
	if bad.Validate() == nil {
		t.Error("negative load accepted")
	}
	bad = *p
	bad.Objects = append([]Object{}, p.Objects...)
	bad.Objects[0].Patches = []int{999}
	if bad.Validate() == nil {
		t.Error("bad patch ref accepted")
	}
	bad = *p
	bad.Objects = append([]Object{}, p.Objects...)
	bad.Objects[0].Patches = []int{2, 5, 2}
	if bad.Validate() == nil {
		t.Error("duplicate patch ref accepted")
	}
}

func TestGreedyBalances(t *testing.T) {
	p := randomProblem(2, 16, 64, 400)
	before := Evaluate(p, NoOp{}.Map(p, 0))
	assign := (&Greedy{}).Map(p, 0)
	checkAssignment(t, p, assign, "greedy")
	after := Evaluate(p, assign)
	if after.MaxLoad >= before.MaxLoad {
		t.Errorf("greedy did not reduce max load: %v -> %v", before.MaxLoad, after.MaxLoad)
	}
	// The clustered start is badly imbalanced; greedy should land close
	// to the average.
	if after.MaxLoad > 1.4*after.AvgLoad {
		t.Errorf("greedy max load %.3g vs avg %.3g", after.MaxLoad, after.AvgLoad)
	}
}

func TestGreedyPrefersProxyReuse(t *testing.T) {
	// Two equal-load objects share a patch; a third uses another patch.
	// With ample headroom the shared-patch objects should co-locate with
	// the patch home rather than scattering.
	p := &Problem{
		NumPE:      4,
		NumPatches: 2,
		PatchHome:  []int{0, 1},
		Objects: []Object{
			{Load: 1, Patches: []int{0}, Migratable: true, PE: 3},
			{Load: 1, Patches: []int{0}, Migratable: true, PE: 3},
			{Load: 1, Patches: []int{1}, Migratable: true, PE: 3},
		},
	}
	assign := (&Greedy{Overload: 10}).Map(p, 0) // huge threshold: free choice
	if assign[0] != 0 || assign[1] != 0 {
		t.Errorf("objects on patch 0 assigned to %d,%d, want home PE 0", assign[0], assign[1])
	}
	if assign[2] != 1 {
		t.Errorf("object on patch 1 assigned to %d, want home PE 1", assign[2])
	}
	st := Evaluate(p, assign)
	if st.Proxies != 0 {
		t.Errorf("proxies = %d, want 0", st.Proxies)
	}
}

func TestGreedyRespectsThreshold(t *testing.T) {
	// 4 equal objects on 4 PEs with tight threshold: one each.
	p := &Problem{
		NumPE:      4,
		NumPatches: 1,
		PatchHome:  []int{0},
		Objects: []Object{
			{Load: 1, Patches: []int{0}, Migratable: true},
			{Load: 1, Patches: []int{0}, Migratable: true},
			{Load: 1, Patches: []int{0}, Migratable: true},
			{Load: 1, Patches: []int{0}, Migratable: true},
		},
	}
	assign := (&Greedy{Overload: 1.05}).Map(p, 0)
	counts := map[int]int{}
	for _, pe := range assign {
		counts[pe]++
	}
	for pe, c := range counts {
		if c != 1 {
			t.Errorf("PE %d got %d objects, want 1", pe, c)
		}
	}
	st := Evaluate(p, assign)
	if st.Imbalance > 1e-9 {
		t.Errorf("imbalance = %v", st.Imbalance)
	}
}

func TestGreedyHonorsNonMigratable(t *testing.T) {
	p := randomProblem(3, 8, 32, 100)
	assign := (&Greedy{}).Map(p, 0)
	checkAssignment(t, p, assign, "greedy")
}

func TestRefineOnlyMovesFromOverloaded(t *testing.T) {
	// PE0 badly overloaded, PE1-3 idle: refine must move something off
	// PE0 and not touch objects on balanced PEs.
	p := &Problem{
		NumPE:      4,
		NumPatches: 4,
		PatchHome:  []int{0, 1, 2, 3},
		Objects: []Object{
			{Load: 1, Patches: []int{0}, Migratable: true, PE: 0},
			{Load: 1, Patches: []int{0}, Migratable: true, PE: 0},
			{Load: 1, Patches: []int{0}, Migratable: true, PE: 0},
			{Load: 1, Patches: []int{0}, Migratable: true, PE: 0},
			{Load: 0.9, Patches: []int{1}, Migratable: true, PE: 1},
		},
	}
	assign := (&Refine{Overload: 1.1}).Map(p, 0)
	checkAssignment(t, p, assign, "refine")
	if assign[4] != 1 {
		t.Errorf("balanced object moved from PE1 to %d", assign[4])
	}
	loads := PELoads(p, assign)
	if loads[0] >= 4 {
		t.Error("refine moved nothing off the overloaded PE")
	}
	// With unit-granularity objects the best achievable max here is 2
	// (5 units of work, 4 PEs, indivisible loads ≈ 1).
	st := Evaluate(p, assign)
	if st.MaxLoad > 2+1e-9 {
		t.Errorf("refine left max %.3g (best achievable 2)", st.MaxLoad)
	}
}

func TestRefineImprovesGreedyResult(t *testing.T) {
	p := randomProblem(4, 12, 48, 300)
	greedy := (&Greedy{Overload: 1.3}).Map(p, 0)
	// Feed greedy's output back as current positions.
	p2 := *p
	p2.Objects = append([]Object{}, p.Objects...)
	for i := range p2.Objects {
		p2.Objects[i].PE = greedy[i]
	}
	refined := (&Refine{Overload: 1.03}).Map(&p2, 0)
	checkAssignment(t, &p2, refined, "refine")
	gs := Evaluate(p, greedy)
	rs := Evaluate(&p2, refined)
	if rs.MaxLoad > gs.MaxLoad+1e-12 {
		t.Errorf("refine worsened max load: %.4g -> %.4g", gs.MaxLoad, rs.MaxLoad)
	}
	// Refinement should move only a few objects (the paper: "only a few
	// additional object migrations").
	moved := 0
	for i := range refined {
		if refined[i] != greedy[i] {
			moved++
		}
	}
	if moved > len(p.Objects)/3 {
		t.Errorf("refine moved %d of %d objects", moved, len(p.Objects))
	}
}

func TestEvaluateProxies(t *testing.T) {
	p := &Problem{
		NumPE:      3,
		NumPatches: 2,
		PatchHome:  []int{0, 1},
		Objects: []Object{
			{Load: 1, Patches: []int{0, 1}, Migratable: true},
			{Load: 1, Patches: []int{0}, Migratable: true},
		},
	}
	// Object 0 on PE2 needs proxies for patches 0 and 1 there; object 1
	// on PE0 needs none.
	st := Evaluate(p, []int{2, 0})
	if st.Proxies != 2 {
		t.Errorf("proxies = %d, want 2", st.Proxies)
	}
	if st.MaxProxiesPerPatch != 1 {
		t.Errorf("max proxies per patch = %d, want 1", st.MaxProxiesPerPatch)
	}
	// Both on their homes: no proxies.
	st = Evaluate(p, []int{0, 0})
	if st.Proxies != 1 { // patch 1 still remote for object 0
		t.Errorf("proxies = %d, want 1", st.Proxies)
	}
}

func TestNoOp(t *testing.T) {
	p := randomProblem(5, 6, 12, 30)
	assign := NoOp{}.Map(p, 0)
	for i, o := range p.Objects {
		if assign[i] != o.PE {
			t.Fatalf("NoOp moved object %d", i)
		}
	}
}

// Property: for random problems both strategies produce valid assignments
// and never increase max load beyond the no-op assignment.
func TestStrategyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		npe := 2 + int(seed%14)
		p := randomProblem(seed, npe, npe*4, npe*20)
		base := Evaluate(p, NoOp{}.Map(p, 0))
		for _, s := range []Strategy{&Greedy{}, &Refine{}} {
			assign := s.Map(p, 0)
			for i, pe := range assign {
				if pe < 0 || pe >= p.NumPE {
					return false
				}
				if !p.Objects[i].Migratable && pe != p.Objects[i].PE {
					return false
				}
			}
			if st := Evaluate(p, assign); st.MaxLoad > base.MaxLoad+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDiffusionImprovesClusteredLoad(t *testing.T) {
	p := randomProblem(7, 12, 48, 240)
	before := Evaluate(p, NoOp{}.Map(p, 0))
	assign := (&Diffusion{}).Map(p, 0)
	checkAssignment(t, p, assign, "diffusion")
	after := Evaluate(p, assign)
	if after.MaxLoad >= before.MaxLoad {
		t.Errorf("diffusion did not reduce max load: %v -> %v", before.MaxLoad, after.MaxLoad)
	}
	if after.MaxLoad > 1.6*after.AvgLoad {
		t.Errorf("diffusion left max %.3g vs avg %.3g", after.MaxLoad, after.AvgLoad)
	}
}

func TestCentralizedBeatsDiffusion(t *testing.T) {
	// The paper's rationale for centralized strategies: they can afford
	// to compute a better mapping. Greedy+refine should never be worse
	// than ring diffusion on the same problem.
	for seed := uint64(0); seed < 5; seed++ {
		p := randomProblem(100+seed, 16, 64, 400)
		diff := Evaluate(p, (&Diffusion{}).Map(p, 0))

		greedy := (&Greedy{}).Map(p, 0)
		p2 := *p
		p2.Objects = append([]Object{}, p.Objects...)
		for i := range p2.Objects {
			p2.Objects[i].PE = greedy[i]
		}
		central := Evaluate(&p2, (&Refine{}).Map(&p2, 0))
		if central.MaxLoad > diff.MaxLoad*1.05 {
			t.Errorf("seed %d: centralized max %.4g worse than diffusion %.4g",
				seed, central.MaxLoad, diff.MaxLoad)
		}
	}
}

func TestDiffusionBalancedInputUnchanged(t *testing.T) {
	// Perfectly balanced input: diffusion has nothing to do.
	p := &Problem{
		NumPE:      4,
		NumPatches: 4,
		PatchHome:  []int{0, 1, 2, 3},
	}
	for pe := 0; pe < 4; pe++ {
		p.Objects = append(p.Objects, Object{Load: 1, Patches: []int{pe}, Migratable: true, PE: pe})
	}
	assign := (&Diffusion{}).Map(p, 0)
	for i, o := range p.Objects {
		if assign[i] != o.PE {
			t.Errorf("diffusion moved object %d on balanced input", i)
		}
	}
}
