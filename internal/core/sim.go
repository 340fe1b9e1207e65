package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"gonamd/internal/charm"
	"gonamd/internal/converse"
	"gonamd/internal/ldb"
	"gonamd/internal/machine"
	"gonamd/internal/spatial"
	"gonamd/internal/trace"
	"gonamd/internal/vec"
)

// Config controls one cluster simulation.
type Config struct {
	PEs   int
	Model machine.Model

	// SplitSelf splits within-cube nonbonded computes by atom count (the
	// paper's first grainsize improvement, already present in the
	// "initial" Figure 1 configuration).
	SplitSelf bool
	// GrainSplit enables §4.2.1 grainsize control proper: heavy
	// cube-pair (face) computes are also split into several migratable
	// pieces.
	GrainSplit bool
	// SplitBonded enables §4.2.2: intra-cube bonded work becomes its own
	// migratable object; only the (small) inter-cube remainder stays
	// pinned. When false, all bonded work per base patch is one pinned
	// object.
	SplitBonded bool
	// MulticastOpt enables §4.2.3's optimized multicast.
	MulticastOpt bool
	// TreeMulticast routes proxy-position and pencil-charge multicasts
	// and the PME transpose all-to-alls through spanning trees whose
	// fan-out the machine model chooses to minimize modeled completion
	// time (see charm.MulticastTree/ScatterTree). Requires MulticastOpt.
	// Flat routing is kept automatically whenever
	// the model says a tree would not help, so this is safe to enable at
	// any scale — it pays off past a few hundred PEs.
	TreeMulticast bool

	// TargetGrain is the grainsize-splitting threshold in seconds of
	// this machine's CPU. Zero selects the paper's recommended ~5 ms
	// scaled by the machine's CPU factor.
	TargetGrain float64

	// Load balancing schedule (paper §3.2 three stages): WarmSteps of
	// free running, then the strategy's pass 0, RefineSteps more, then
	// pass 1, then MeasureSteps whose durations are reported.
	WarmSteps    int
	RefineSteps  int
	MeasureSteps int

	// LB is the pluggable load-balancing strategy; nil selects the
	// default ldb.GreedyRefine. Use ldb.Lookup to resolve a registry name
	// ("greedy+refine", "refine-only", "hierarchical", "diffusion",
	// "none"); ldb.NoOp skips balancing and the warm/refine epochs
	// entirely (static placement only).
	LB ldb.Strategy

	CollectTrace bool

	// PMEGrid enables full electrostatics: the reciprocal mesh has
	// PMEGrid points per axis (0 disables PME; powers of two match the
	// real engines' FFT). The mesh work runs on migratable pencil
	// compute objects — see pme.go.
	PMEGrid int
	// PMEMTSPeriod is the impulse-MTS reciprocal period: only steps
	// divisible by it are reciprocal steps (0 picks 4, the usual
	// slow-force schedule; 1 evaluates every step).
	PMEMTSPeriod int
	// PMEPencils is the pencil-grid side p (p² z-pencils and p²
	// x-pencils; 0 picks ~√PEs clamped to [2,8]).
	PMEPencils int
}

func (c *Config) fillDefaults() {
	if c.TargetGrain == 0 {
		c.TargetGrain = 5e-3 * c.Model.CPUFactor
	}
	if c.WarmSteps == 0 {
		c.WarmSteps = 3
	}
	if c.RefineSteps == 0 {
		c.RefineSteps = 3
	}
	if c.MeasureSteps == 0 {
		c.MeasureSteps = 6
	}
	if c.PMEGrid > 0 && c.PMEMTSPeriod == 0 {
		c.PMEMTSPeriod = 4
	}
}

// lbIsNone reports whether the strategy is the registry's "none": no
// balancing passes, so the simulation skips the warm/refine epochs.
func lbIsNone(s ldb.Strategy) bool {
	switch s.(type) {
	case ldb.NoOp, *ldb.NoOp:
		return true
	}
	return false
}

// Result reports one simulation's outcome.
type Result struct {
	PEs           int
	AvgStep       float64   // mean measured step duration, virtual seconds
	StepDurations []float64 // the measured step durations
	SeqTime       float64   // modeled sequential step time
	Counts        machine.Counts
	GFLOPS        float64

	NumComputes        int
	MaxProxiesPerPatch int
	TotalMsgs          int
	TotalBytes         int
	LBStats            []ldb.Stats // per balancing pass, post-assignment

	// PMEComputes is the number of pencil objects (0 when PME is off);
	// PMEMigrations counts pencil migrations performed by the load
	// balancer across all passes.
	PMEComputes   int
	PMEMigrations int

	// MeasureT0/T1 bound the measured-steps window in virtual time (for
	// audits and timelines); Trace is non-nil when CollectTrace was set.
	MeasureT0, MeasureT1 float64
	Trace                *trace.Log
}

// proxyForceMsg marks a combined force message from a proxy (as opposed
// to a local compute deposit), so the home patch can charge per-atom
// force-combining cost for it.
type proxyForceMsg struct{ step int }

// message priority classes; lower runs first. Step ordering dominates.
func prio(step, class int) int64 { return int64(step)*4 + int64(class) }

const (
	classPositions = 0
	classDeposit   = 1
	classForce     = 2
)

type patchState struct {
	id            int
	atoms         int
	step          int
	expect        int
	got           stepCounter
	proxies       []charm.ObjID // the proxies computes currently use
	byPE          []*proxyState // every proxy ever created, by PE
	locals        []charm.ObjID
	pencils       []charm.ObjID // z-pencils this patch spreads charge onto
	integrateTime float64
	posBytes      int
}

type proxyState struct {
	patch    int
	pe       int
	obj      charm.ObjID
	home     charm.ObjID
	computes []charm.ObjID
	expect   int
	got      stepCounter
	frcBytes int
}

// stepCounter counts one object's message arrivals per step (or per
// step-and-phase key). The step protocol keeps at most a step or two in
// flight per object, so a short slice scanned linearly stands in for a
// map.
type stepCounter []stepCount

type stepCount struct{ key, n int }

// counterBlock is how many arrival counters one allocation holds.
const counterBlock = 1024

// newCounter returns an empty arrival counter with room for two keys,
// carved from a block shared with other counters instead of allocated on
// its first arrival. Its capacity ends where its window does, so a third
// key reallocates instead of overwriting the next counter.
func (s *Sim) newCounter() stepCounter {
	if len(s.counters) < 2 {
		s.counters = make([]stepCount, 2*counterBlock)
	}
	c := s.counters[:0:2]
	s.counters = s.counters[2:]
	return c
}

// arrive counts one arrival for key and reports whether need arrivals
// have now been counted, forgetting the key when they have.
func (c *stepCounter) arrive(key, need int) bool {
	s := *c
	for i := range s {
		if s[i].key != key {
			continue
		}
		s[i].n++
		if s[i].n < need {
			return false
		}
		s[i] = s[len(s)-1]
		*c = s[:len(s)-1]
		return true
	}
	if need > 1 {
		*c = append(s, stepCount{key: key, n: 1})
		return false
	}
	return true
}

type target struct {
	obj   charm.ObjID
	entry charm.EntryID
}

type computeState struct {
	idx        int
	cat        trace.Category
	patches    []int
	work       float64
	drift      float64 // per-step multiplicative work change (see SetLoadDrift)
	migratable bool
	need       int
	got        stepCounter
	reps       []target
}

// Sim is one cluster simulation of a workload.
type Sim struct {
	cfg Config
	w   *Workload
	m   *converse.Machine
	rt  *charm.Runtime

	ePatchStart   charm.EntryID
	ePatchForce   charm.EntryID
	eProxyPos     charm.EntryID
	eProxyDeposit charm.EntryID
	eNotify       charm.EntryID

	patchHome  []int
	patchObj   []charm.ObjID
	patches    []*patchState
	computeObj []charm.ObjID
	computes   []*computeState

	// PME pencil decomposition (nil/empty when Config.PMEGrid == 0).
	ePencilCharge charm.EntryID
	ePencilFwd    charm.EntryID
	ePencilBwd    charm.EntryID
	zPencils      []*pencilState
	xPencils      []*pencilState
	zPencilObj    []charm.ObjID
	xPencilObj    []charm.ObjID
	pmeP          int
	pmeBlockBytes int
	pmeMigrations int

	totalSteps int
	pauseAt    int
	stepEnd    []float64
	busyBase   []float64

	// counters is the unused rest of the block arrival counters are
	// carved from (see newCounter).
	counters []stepCount

	lb      ldb.Strategy
	lbStats []ldb.Stats
}

// NewSim builds the decomposition for a workload under a configuration.
func NewSim(w *Workload, cfg Config) (*Sim, error) {
	if cfg.PEs <= 0 {
		return nil, fmt.Errorf("core: PEs = %d", cfg.PEs)
	}
	cfg.fillDefaults()
	lb := cfg.LB
	if lb == nil {
		lb = &ldb.GreedyRefine{}
	}
	net := cfg.Model.Net
	net.MulticastOptimized = cfg.MulticastOpt

	s := &Sim{
		cfg: cfg,
		w:   w,
		m:   converse.NewMachine(cfg.PEs, net),
		lb:  lb,
	}
	if cfg.CollectTrace {
		s.m.Trace = trace.NewLog()
	}
	s.rt = charm.NewRuntime(s.m)
	s.registerEntries()
	s.placePatches()
	s.createComputes()
	if s.pmeOn() {
		s.registerPMEEntries()
		if err := s.createPencils(); err != nil {
			return nil, err
		}
	}
	s.wire()
	return s, nil
}

func (s *Sim) registerEntries() {
	s.ePatchStart = s.rt.RegisterEntry("patch.start", func(c *charm.Ctx, obj, payload any, size int) {
		s.sendPositions(c, obj.(*patchState))
	})
	s.ePatchForce = s.rt.RegisterEntry("patch.force", func(c *charm.Ctx, obj, payload any, size int) {
		ps := obj.(*patchState)
		var step int
		switch m := payload.(type) {
		case proxyForceMsg:
			// Combining a remote force contribution costs per-atom work
			// (part of the integration method's growth the paper notes).
			c.Charge(float64(ps.atoms)*s.cfg.Model.PerAtomMsg, trace.CatIntegration)
			step = m.step
		case pmeForceMsg:
			c.Charge(float64(ps.atoms)*s.cfg.Model.PerAtomMsg, trace.CatIntegration)
			step = m.step
		case int:
			step = m
		}
		need := ps.expect
		if s.pmeRecipStep(step) {
			// Reciprocal steps additionally wait for one slow-force
			// message from each attached z-pencil.
			need += len(ps.pencils)
		}
		if !ps.got.arrive(step, need) {
			return
		}
		// All forces for this step are in: integrate, then begin the
		// next step by distributing new positions (the critical entry
		// method of Figures 3-4).
		c.Charge(ps.integrateTime, trace.CatIntegration)
		s.recordStepDone(ps.step, c.Now())
		ps.step++
		if ps.step >= s.totalSteps || ps.step == s.pauseAt {
			return
		}
		s.sendPositions(c, ps)
	})
	s.eProxyPos = s.rt.RegisterEntry("proxy.positions", func(c *charm.Ctx, obj, payload any, size int) {
		px := obj.(*proxyState)
		step := payload.(int)
		// Unpacking the coordinate message and staging the coordinates
		// for the local computes costs per-atom work (heavier than the
		// home side's force combine).
		c.Charge(2*float64(s.patches[px.patch].atoms)*s.cfg.Model.PerAtomMsg, trace.CatComm)
		for _, comp := range px.computes {
			c.Send(comp, s.eNotify, step, 16, prio(step, classPositions))
		}
	})
	s.eProxyDeposit = s.rt.RegisterEntry("proxy.deposit", func(c *charm.Ctx, obj, payload any, size int) {
		px := obj.(*proxyState)
		step := payload.(int)
		if !px.got.arrive(step, px.expect) {
			return
		}
		c.Send(px.home, s.ePatchForce, proxyForceMsg{step: step}, px.frcBytes, prio(step, classForce))
	})
	s.eNotify = s.rt.RegisterEntry("compute.notify", func(c *charm.Ctx, obj, payload any, size int) {
		cs := obj.(*computeState)
		step := payload.(int)
		if !cs.got.arrive(step, cs.need) {
			return
		}
		c.Charge(cs.work, cs.cat)
		if cs.drift != 0 {
			cs.work *= 1 + cs.drift
		}
		for _, rep := range cs.reps {
			c.Send(rep.obj, rep.entry, step, 16, prio(step, classDeposit))
		}
	})
}

// placePatches distributes home patches by recursive coordinate bisection
// weighted by atom counts (paper §3.2 stage one).
func (s *Sim) placePatches() {
	np := s.w.Grid.NumPatches()
	cs := make([]vec.V3, np)
	weights := make([]float64, np)
	for p := 0; p < np; p++ {
		cs[p] = s.w.Grid.Center(p)
		weights[p] = float64(s.w.PatchAtoms[p])
	}
	s.patchHome = spatial.RCB(cs, weights, s.cfg.PEs)

	s.patchObj = make([]charm.ObjID, np)
	s.patches = make([]*patchState, np)
	for p := 0; p < np; p++ {
		ps := &patchState{
			id:            p,
			atoms:         s.w.PatchAtoms[p],
			integrateTime: float64(s.w.PatchAtoms[p]) * s.cfg.Model.PerAtomIntegrate,
			posBytes:      32 * s.w.PatchAtoms[p],
			got:           s.newCounter(),
		}
		s.patches[p] = ps
		s.patchObj[p] = s.rt.CreateObj(s.patchHome[p], ps, false)
	}
}

// nbWork converts a pair count to modeled seconds.
func (s *Sim) nbWork(c PairCount) float64 {
	return float64(c.Within)*s.cfg.Model.PerPair + float64(c.Listed-c.Within)*s.cfg.Model.PerListed
}

// addCompute creates one compute object.
func (s *Sim) addCompute(pe int, cat trace.Category, patches []int, work float64, migratable bool) {
	cs := &computeState{
		idx:        len(s.computes),
		cat:        cat,
		patches:    patches,
		work:       work,
		migratable: migratable,
		need:       len(patches),
		got:        s.newCounter(),
	}
	s.computes = append(s.computes, cs)
	s.computeObj = append(s.computeObj, s.rt.CreateObj(pe, cs, migratable))
}

// pieces returns how many pieces a compute of the given work is split
// into to meet the target grainsize.
func (s *Sim) pieces(work float64) int {
	if work <= s.cfg.TargetGrain {
		return 1
	}
	return int(math.Ceil(work / s.cfg.TargetGrain))
}

// createComputes builds the hybrid decomposition's compute objects and
// statically places them on the base patch's home processor, which keeps
// every patch's proxy count at most 7 (paper §3.2 stage one).
func (s *Sim) createComputes() {
	g := s.w.Grid
	// Nonbonded self computes.
	for p := 0; p < g.NumPatches(); p++ {
		work := s.nbWork(s.w.Self[p])
		k := 1
		if s.cfg.SplitSelf || s.cfg.GrainSplit {
			k = s.pieces(work)
		}
		for piece := 0; piece < k; piece++ {
			s.addCompute(s.patchHome[p], trace.CatNonbonded, []int{p}, work/float64(k), true)
		}
	}
	// Nonbonded pair computes, placed at the pair's base patch home.
	for pi, pr := range s.w.Pairs {
		work := s.nbWork(s.w.PairCounts[pi])
		base := g.BaseOf([]int{pr[0], pr[1]})
		k := 1
		if s.cfg.GrainSplit {
			k = s.pieces(work)
		}
		for piece := 0; piece < k; piece++ {
			s.addCompute(s.patchHome[base], trace.CatNonbonded, []int{pr[0], pr[1]}, work/float64(k), true)
		}
	}
	// Bonded computes.
	interTerms := make(map[int]BondedGroup, len(s.w.InterGroups))
	for _, gr := range s.w.InterGroups {
		interTerms[gr.Base] = gr
	}
	if s.cfg.SplitBonded {
		// §4.2.2: intra-cube bonded work is migratable (communicates
		// exactly like a nonbonded self compute); inter-cube remainders
		// stay pinned at the base patch's home.
		for p := 0; p < g.NumPatches(); p++ {
			if s.w.IntraTerms[p] > 0 {
				s.addCompute(s.patchHome[p], trace.CatBonded,
					[]int{p}, float64(s.w.IntraTerms[p])*s.cfg.Model.PerBonded, true)
			}
		}
		for _, gr := range s.w.InterGroups {
			s.addCompute(s.patchHome[gr.Base], trace.CatBonded,
				append([]int{}, gr.Patches...), float64(gr.Terms)*s.cfg.Model.PerBonded, false)
		}
	} else {
		// Pre-§4.2.2: one pinned bonded object per patch carrying both
		// its intra terms and any inter group based there.
		for p := 0; p < g.NumPatches(); p++ {
			terms := s.w.IntraTerms[p]
			patches := []int{p}
			if gr, ok := interTerms[p]; ok {
				terms += gr.Terms
				patches = unionInts(patches, gr.Patches)
			}
			if terms == 0 {
				continue
			}
			s.addCompute(s.patchHome[p], trace.CatBonded,
				patches, float64(terms)*s.cfg.Model.PerBonded, false)
		}
	}
}

func unionInts(a, b []int) []int {
	seen := map[int]bool{}
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		seen[x] = true
	}
	out := make([]int, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

// wire rebuilds the proxy structure and message expectations from the
// computes' current locations. Must be called while the machine is
// quiescent.
//
// It runs in O(entries): a counting sort of the computes by PE feeds a
// counting sort of their patch references by patch, both stable, so each
// patch's references come out in (PE, compute index) order. A run of one
// PE is then the patch's local computes or one proxy's, and new proxies
// are created in (patch, PE) order.
func (s *Sim) wire() {
	loc := make([]int, len(s.computes))
	peStart := make([]int, s.cfg.PEs+1)
	refStart := make([]int, len(s.patches)+1)
	for ci, cs := range s.computes {
		loc[ci] = s.rt.Location(s.computeObj[ci])
		peStart[loc[ci]+1]++
		for _, p := range cs.patches {
			refStart[p+1]++
		}
		if len(cs.reps) != len(cs.patches) {
			cs.reps = make([]target, len(cs.patches))
		}
	}
	for pe := range s.cfg.PEs {
		peStart[pe+1] += peStart[pe]
	}
	for p := range s.patches {
		refStart[p+1] += refStart[p]
	}
	byPE := make([]int, len(s.computes))
	for ci, pe := range loc {
		byPE[peStart[pe]] = ci
		peStart[pe]++
	}
	refs := make([]patchRef, refStart[len(s.patches)])
	next := append([]int(nil), refStart...)
	for _, ci := range byPE {
		for k, p := range s.computes[ci].patches {
			refs[next[p]] = patchRef{ci: ci, k: k}
			next[p]++
		}
	}

	for p, ps := range s.patches {
		ps.proxies = ps.proxies[:0]
		ps.locals = ps.locals[:0]
		known := 0 // ps.byPE[:known] lie on PEs below the current run's
		for run := refs[refStart[p]:refStart[p+1]]; len(run) > 0; {
			pe := loc[run[0].ci]
			n := 1
			for n < len(run) && loc[run[n].ci] == pe {
				n++
			}
			if pe == s.patchHome[p] {
				for _, r := range run[:n] {
					ps.locals = append(ps.locals, s.computeObj[r.ci])
					s.computes[r.ci].reps[r.k] = target{obj: s.patchObj[p], entry: s.ePatchForce}
				}
				run = run[n:]
				continue
			}
			for known < len(ps.byPE) && ps.byPE[known].pe < pe {
				known++
			}
			if known == len(ps.byPE) || ps.byPE[known].pe != pe {
				px := &proxyState{patch: p, pe: pe, home: s.patchObj[p], frcBytes: 24 * ps.atoms, got: s.newCounter()}
				px.obj = s.rt.CreateObj(pe, px, false)
				ps.byPE = slices.Insert(ps.byPE, known, px)
			}
			px := ps.byPE[known]
			px.computes = slices.Grow(px.computes[:0], n)
			for _, r := range run[:n] {
				px.computes = append(px.computes, s.computeObj[r.ci])
				s.computes[r.ci].reps[r.k] = target{obj: px.obj, entry: s.eProxyDeposit}
			}
			px.expect = len(px.computes)
			ps.proxies = append(ps.proxies, px.obj)
			run = run[n:]
		}
		ps.expect = len(ps.locals) + len(ps.proxies)
	}
}

// patchRef is a compute's k-th patch reference.
type patchRef struct{ ci, k int }

// sendPositions is the tail of the integration method: multicast the
// patch's new positions to its proxies and notify co-located computes.
func (s *Sim) sendPositions(c *charm.Ctx, ps *patchState) {
	s.mcast(c, ps.proxies, s.eProxyPos, ps.step, ps.posBytes, prio(ps.step, classPositions))
	for _, comp := range ps.locals {
		c.Send(comp, s.eNotify, ps.step, 16, prio(ps.step, classPositions))
	}
	if s.pmeRecipStep(ps.step) {
		// Multicast positions and charges to the attached z-pencils for
		// the reciprocal sum (the PME analogue of proxy delivery).
		s.mcast(c, ps.pencils, s.ePencilCharge, ps.step, ps.posBytes, prio(ps.step, classPositions))
	}
}

// mcast routes a one-to-many delivery through a machine-model-costed
// spanning tree when Config.TreeMulticast is set, and the flat §4.2.3
// multicast otherwise.
func (s *Sim) mcast(c *charm.Ctx, objs []charm.ObjID, e charm.EntryID, payload any, size int, pr int64) {
	if s.cfg.TreeMulticast {
		c.MulticastTree(objs, e, payload, size, pr)
		return
	}
	c.Multicast(objs, e, payload, size, pr)
}

func (s *Sim) recordStepDone(step int, t float64) {
	for len(s.stepEnd) <= step {
		s.stepEnd = append(s.stepEnd, 0)
	}
	if t > s.stepEnd[step] {
		s.stepEnd[step] = t
	}
}

// resume injects a start message into every patch (used at the beginning
// and after each load-balancing pause).
func (s *Sim) resume() {
	for p := range s.patches {
		s.rt.Inject(s.patchObj[p], s.ePatchStart, nil, 16, prio(s.patches[p].step, classPositions))
	}
}

// runEpoch runs the machine until every patch has completed `until`
// steps.
func (s *Sim) runEpoch(until int) {
	if until > s.totalSteps {
		until = s.totalSteps
	}
	if s.patches[0].step >= until {
		return
	}
	s.pauseAt = until
	s.resume()
	s.m.Run()
	for _, ps := range s.patches {
		if ps.step != until {
			panic(fmt.Sprintf("core: patch %d stopped at step %d, want %d", ps.id, ps.step, until))
		}
	}
}

// loadBalance runs one balancing pass of the configured strategy over
// the loads measured since the last reset, migrates objects, and
// rewires. Composite strategies (ldb.Stager) expand into their stages so
// each stage starts from the previous one's assignment, exactly like the
// historical greedy→refine sequence.
func (s *Sim) loadBalance(steps int, strat ldb.Strategy, pass int) {
	loads := s.rt.Loads()
	busy, _ := s.m.PEStats()
	if s.busyBase == nil {
		s.busyBase = make([]float64, s.cfg.PEs)
	}

	pencilObjs := append(append([]charm.ObjID{}, s.zPencilObj...), s.xPencilObj...)
	prob := &ldb.Problem{
		NumPE:      s.cfg.PEs,
		NumPatches: s.w.Grid.NumPatches(),
		Objects:    make([]ldb.Object, 0, len(s.computes)+len(pencilObjs)),
		PatchHome:  s.patchHome,
		Background: make([]float64, s.cfg.PEs),
	}

	// Background: everything the PE did that is not compute-object work
	// (integration, proxies, message handling), per step.
	computeLoad := make([]float64, s.cfg.PEs)
	for ci := range s.computes {
		pe := s.rt.Location(s.computeObj[ci])
		computeLoad[pe] += loads[s.computeObj[ci]]
	}
	for _, obj := range pencilObjs {
		computeLoad[s.rt.Location(obj)] += loads[obj]
	}
	for pe := 0; pe < s.cfg.PEs; pe++ {
		bg := (busy[pe] - s.busyBase[pe] - computeLoad[pe]) / float64(steps)
		if bg < 0 {
			bg = 0
		}
		prob.Background[pe] = bg
	}
	for ci, cs := range s.computes {
		prob.Objects = append(prob.Objects, ldb.Object{
			Load:       loads[s.computeObj[ci]] / float64(steps),
			Patches:    cs.patches,
			Migratable: cs.migratable,
			PE:         s.rt.Location(s.computeObj[ci]),
		})
	}
	// Pencil objects are fully migratable; z-pencils carry their patch
	// attachments so placement can favor the processors already holding
	// that charge data.
	for i, obj := range pencilObjs {
		var patches []int
		if i < len(s.zPencils) {
			patches = s.zPencils[i].patches
		}
		prob.Objects = append(prob.Objects, ldb.Object{
			Load:       loads[obj] / float64(steps),
			Patches:    patches,
			Migratable: true,
			PE:         s.rt.Location(obj),
		})
	}

	stages := []ldb.Strategy{strat}
	if st, ok := strat.(ldb.Stager); ok {
		stages = st.Stages(pass)
	}
	assign := make([]int, len(prob.Objects))
	for i, o := range prob.Objects {
		assign[i] = o.PE
	}
	for _, stage := range stages {
		for i := range prob.Objects {
			prob.Objects[i].PE = assign[i]
		}
		assign = stage.Map(prob, pass)
	}
	s.lbStats = append(s.lbStats, ldb.Evaluate(prob, assign))

	for ci := range s.computes {
		if s.computes[ci].migratable && assign[ci] != s.rt.Location(s.computeObj[ci]) {
			s.rt.Migrate(s.computeObj[ci], assign[ci])
		}
	}
	for i, obj := range pencilObjs {
		if pe := assign[len(s.computes)+i]; pe != s.rt.Location(obj) {
			s.rt.Migrate(obj, pe)
			s.pmeMigrations++
		}
	}
	s.wire()
	s.rt.ResetLoads()
	busy, _ = s.m.PEStats()
	copy(s.busyBase, busy)
}

// Run executes the full benchmark protocol and returns the result.
func (s *Sim) Run() *Result {
	cfg := s.cfg
	if lbIsNone(s.lb) {
		s.totalSteps = cfg.MeasureSteps + 1
		s.runEpoch(s.totalSteps)
	} else {
		s.totalSteps = cfg.WarmSteps + cfg.RefineSteps + cfg.MeasureSteps + 1
		s.runEpoch(cfg.WarmSteps)
		s.loadBalance(cfg.WarmSteps, s.lb, 0)
		s.runEpoch(cfg.WarmSteps + cfg.RefineSteps)
		s.loadBalance(cfg.RefineSteps, s.lb, 1)
		s.runEpoch(s.totalSteps)
	}

	// Zero-duration "step" markers at the virtual step boundaries let the
	// projections analyzer derive the step-time series from the same trace
	// the execution records live in.
	if s.m.Trace.Enabled() {
		for step, t := range s.stepEnd {
			s.m.Trace.Add(trace.ExecRecord{PE: 0, Obj: int32(step), Entry: "step", Start: t, End: t})
		}
	}

	res := &Result{
		PEs:           cfg.PEs,
		SeqTime:       cfg.Model.SeqTime(s.w.Counts()),
		Counts:        s.w.Counts(),
		NumComputes:   len(s.computes),
		PMEComputes:   len(s.zPencils) + len(s.xPencils),
		PMEMigrations: s.pmeMigrations,
		TotalMsgs:     s.m.TotalMsgs,
		TotalBytes:    s.m.TotalBytes,
		LBStats:       s.lbStats,
		Trace:         s.m.Trace,
	}
	// Measured steps: the last MeasureSteps durations (the first step
	// after the final pause is excluded via the extra +1 step above).
	first := s.totalSteps - cfg.MeasureSteps
	for step := first; step < s.totalSteps; step++ {
		res.StepDurations = append(res.StepDurations, s.stepEnd[step]-s.stepEnd[step-1])
	}
	sum := 0.0
	for _, d := range res.StepDurations {
		sum += d
	}
	res.AvgStep = sum / float64(len(res.StepDurations))
	res.MeasureT0 = s.stepEnd[first-1]
	res.MeasureT1 = s.stepEnd[s.totalSteps-1]
	res.GFLOPS = cfg.Model.GFLOPS(res.Counts, res.AvgStep)
	res.MaxProxiesPerPatch = s.maxProxies()
	return res
}

func (s *Sim) maxProxies() int {
	maxP := 0
	for _, ps := range s.patches {
		if len(ps.proxies) > maxP {
			maxP = len(ps.proxies)
		}
	}
	return maxP
}

// ProxiesPerPatch returns the current number of proxies of each patch.
func (s *Sim) ProxiesPerPatch() []int {
	out := make([]int, len(s.patches))
	for i, ps := range s.patches {
		out[i] = len(ps.proxies)
	}
	return out
}
