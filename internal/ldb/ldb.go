// Package ldb is the measurement-based load balancing framework of paper
// §2.2 and §3.2. It is deliberately independent of both the simulated
// machine and the real parallel engine: a Problem describes measured
// object loads, the patches each object needs data from, patch home
// processors, and per-processor background (non-migratable) load; a
// Strategy produces a new object→processor mapping. The strategies the
// paper uses — the greedy proxy-aware initial algorithm, the conservative
// refinement, the refinement-only incremental balancer, and the
// hierarchical group-wise balancer for thousand-PE runs — are implemented
// here, along with the statistics (max/average load, proxy counts) the
// paper reports. Strategies are selectable by name through Lookup
// ("greedy+refine", "refine-only", "hierarchical", "diffusion", "none").
//
// Background nil contract: Problem.Background may be nil, which every
// consumer in this package must treat as identical to a slice of NumPE
// zeros — no strategy or statistic may panic or behave differently on a
// nil Background versus an explicit all-zero one. When non-nil it must
// have exactly NumPE entries (enforced by Validate).
package ldb

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Object is one migratable (or pinned) unit of work.
type Object struct {
	Load       float64 // measured execution time per step, seconds
	Patches    []int   // patches whose data the object requires
	Migratable bool
	PE         int // current processor
}

// Problem is the load balancer's input database.
type Problem struct {
	NumPE      int
	NumPatches int
	Objects    []Object
	PatchHome  []int     // patch id → home PE
	Background []float64 // per-PE non-migratable load (integration etc.), may be nil
}

// Validate checks index ranges.
func (p *Problem) Validate() error {
	if p.NumPE <= 0 {
		return fmt.Errorf("ldb: NumPE = %d", p.NumPE)
	}
	if len(p.PatchHome) != p.NumPatches {
		return fmt.Errorf("ldb: PatchHome has %d entries for %d patches", len(p.PatchHome), p.NumPatches)
	}
	for i, h := range p.PatchHome {
		if h < 0 || h >= p.NumPE {
			return fmt.Errorf("ldb: patch %d home %d out of range", i, h)
		}
	}
	if p.Background != nil && len(p.Background) != p.NumPE {
		return fmt.Errorf("ldb: Background has %d entries for %d PEs", len(p.Background), p.NumPE)
	}
	for i, o := range p.Objects {
		if o.PE < 0 || o.PE >= p.NumPE {
			return fmt.Errorf("ldb: object %d on PE %d", i, o.PE)
		}
		if o.Load < 0 {
			return fmt.Errorf("ldb: object %d has negative load", i)
		}
		for k, pt := range o.Patches {
			if pt < 0 || pt >= p.NumPatches {
				return fmt.Errorf("ldb: object %d references patch %d", i, pt)
			}
			// Duplicate references within one object would double-count
			// proxies in Evaluate and availability tracking.
			for _, prev := range o.Patches[:k] {
				if prev == pt {
					return fmt.Errorf("ldb: object %d references patch %d twice", i, pt)
				}
			}
		}
	}
	return nil
}

// Strategy maps objects to processors. Implementations must keep
// non-migratable objects on their current PE.
//
// pass counts the balancing passes of one simulation run: pass 0 is the
// initial balance after the warm-up measurement, pass ≥ 1 are the later
// refinement opportunities. Composite strategies (GreedyRefine,
// Hierarchical) use it to run their expensive global stage only once;
// simple strategies ignore it.
type Strategy interface {
	Name() string
	Map(p *Problem, pass int) []int
}

// Stats summarizes an assignment.
type Stats struct {
	MaxLoad            float64
	AvgLoad            float64
	Imbalance          float64 // MaxLoad - AvgLoad (the paper's Table 1 "Imbalance")
	Proxies            int     // total proxy patches required
	MaxProxiesPerPatch int
}

// Evaluate computes per-PE loads and proxy statistics for an assignment.
func Evaluate(p *Problem, assign []int) Stats {
	loads := PELoads(p, assign)
	var st Stats
	total := 0.0
	for _, l := range loads {
		total += l
		if l > st.MaxLoad {
			st.MaxLoad = l
		}
	}
	st.AvgLoad = total / float64(p.NumPE)
	st.Imbalance = st.MaxLoad - st.AvgLoad

	// A proxy exists for patch t on PE e when some object on e needs t
	// and e is not t's home. Walking the objects PE by PE, a per-patch
	// stamp (the last PE counted for it, plus one) counts each pair once.
	start, idx := bucket(p, assign)
	stamp := make([]int, p.NumPatches)
	proxies := make([]int, p.NumPatches)
	for pe := 0; pe < p.NumPE; pe++ {
		for _, i := range idx[start[pe]:start[pe+1]] {
			for _, t := range p.Objects[i].Patches {
				if p.PatchHome[t] != pe && stamp[t] != pe+1 {
					stamp[t] = pe + 1
					proxies[t]++
				}
			}
		}
	}
	for _, n := range proxies {
		st.Proxies += n
		if n > st.MaxProxiesPerPatch {
			st.MaxProxiesPerPatch = n
		}
	}
	return st
}

// PELoads returns per-PE load (background plus assigned objects).
func PELoads(p *Problem, assign []int) []float64 {
	loads := make([]float64, p.NumPE)
	if p.Background != nil {
		copy(loads, p.Background)
	}
	for i, o := range p.Objects {
		loads[assign[i]] += o.Load
	}
	return loads
}

// bucket groups the objects by PE, in index order within a PE (a
// counting sort): the objects on pe are idx[start[pe]:start[pe+1]].
func bucket(p *Problem, assign []int) (start, idx []int) {
	start = make([]int, p.NumPE+1)
	for _, pe := range assign {
		start[pe+1]++
	}
	for pe := 0; pe < p.NumPE; pe++ {
		start[pe+1] += start[pe]
	}
	idx = make([]int, len(assign))
	next := append([]int(nil), start[:p.NumPE]...)
	for i, pe := range assign {
		idx[next[pe]] = i
		next[pe]++
	}
	return start, idx
}

// objLists buckets the migratable objects by PE, in index order. Each
// list is a capacity-limited window of one shared array, so an append
// reallocates that list alone.
func objLists(p *Problem, assign []int) [][]int {
	start, idx := bucket(p, assign)
	l := make([][]int, p.NumPE)
	for pe := range l {
		l[pe] = slices.DeleteFunc(idx[start[pe]:start[pe+1]:start[pe+1]],
			func(i int) bool { return !p.Objects[i].Migratable })
	}
	return l
}

// availability tracks which patches have data (home or proxy) on each
// PE: a dense PE × patch bitset of ⌈patches/64⌉ words per PE, beside
// each patch's holders in ascending order.
type availability struct {
	words   int
	bits    []uint64
	holders [][]int // patch → PEs holding it, sorted
}

// newAvailability places every patch on its home PE and, for every
// object (or, with pinnedOnly, every non-migratable one), the object's
// patches on its current PE.
func newAvailability(p *Problem, pinnedOnly bool) *availability {
	words := (p.NumPatches + 63) / 64
	a := &availability{
		words:   words,
		bits:    make([]uint64, p.NumPE*words),
		holders: make([][]int, p.NumPatches),
	}
	count := make([]int, p.NumPatches+1)
	set := func(patch, pe int) {
		w := &a.bits[pe*words+patch>>6]
		if bit := uint64(1) << (patch & 63); *w&bit == 0 {
			*w |= bit
			count[patch+1]++
		}
	}
	for t, home := range p.PatchHome {
		set(t, home)
	}
	for _, o := range p.Objects {
		if !pinnedOnly || !o.Migratable {
			for _, t := range o.Patches {
				set(t, o.PE)
			}
		}
	}
	// Read the holders off the bitset, PE by PE, so each list is sorted;
	// each is a capacity-limited window of one array, like objLists.
	for t := range p.NumPatches {
		count[t+1] += count[t]
	}
	all := make([]int, count[p.NumPatches])
	for t := range a.holders {
		a.holders[t] = all[count[t]:count[t]:count[t+1]]
	}
	for pe := 0; pe < p.NumPE; pe++ {
		for w, word := range a.bits[pe*words : (pe+1)*words] {
			for ; word != 0; word &= word - 1 {
				t := w*64 + bits.TrailingZeros64(word)
				a.holders[t] = append(a.holders[t], pe)
			}
		}
	}
	return a
}

func (a *availability) add(patch, pe int) {
	w := &a.bits[pe*a.words+patch>>6]
	if bit := uint64(1) << (patch & 63); *w&bit == 0 {
		*w |= bit
		h := a.holders[patch]
		k, _ := slices.BinarySearch(h, pe)
		h = append(h, 0)
		copy(h[k+1:], h[k:])
		h[k] = pe
		a.holders[patch] = h
	}
}

func (a *availability) has(patch, pe int) bool {
	return a.bits[pe*a.words+patch>>6]&(1<<(patch&63)) != 0
}

// missing returns how many of the object's patches are not yet on pe.
func missing(a *availability, patches []int, pe int) int {
	n := 0
	for _, t := range patches {
		if !a.has(t, pe) {
			n++
		}
	}
	return n
}

// homeCount returns how many of the object's patches have their home on pe.
func homeCount(p *Problem, patches []int, pe int) int {
	n := 0
	for _, t := range patches {
		if p.PatchHome[t] == pe {
			n++
		}
	}
	return n
}

// tournament is a tournament tree over a slice of loads, for the first
// least-loaded (or, with heaviest set, most-loaded) PE of any span of
// PEs. Every node holds the index of the winner of its two children, the
// left (lower index) one on ties, so a span's winner is what a linear
// scan with a strict comparison returns; a query or a changed load costs
// O(log P).
type tournament struct {
	vals []float64
	sign float64 // 1 for the least, -1 for the most loaded (negation is exact)
	n    int     // leaves: len(vals) rounded up to a power of two
	node []int   // node k's children are 2k and 2k+1; leaf n+i holds i, -1 past the end
}

func newTournament(vals []float64, heaviest bool) *tournament {
	n := 1
	for n < len(vals) {
		n <<= 1
	}
	t := &tournament{vals: vals, sign: 1, n: n, node: make([]int, 2*n)}
	if heaviest {
		t.sign = -1
	}
	for i := 0; i < n; i++ {
		t.node[n+i] = i
		if i >= len(vals) {
			t.node[n+i] = -1
		}
	}
	for k := n - 1; k >= 1; k-- {
		t.node[k] = t.winner(t.node[2*k], t.node[2*k+1])
	}
	return t
}

// winner of a and b, where a's leaves all lie left of b's.
func (t *tournament) winner(a, b int) int {
	if a < 0 {
		return b
	}
	if b >= 0 && t.sign*t.vals[b] < t.sign*t.vals[a] {
		return b
	}
	return a
}

// update refolds vals[i] after it changed.
func (t *tournament) update(i int) {
	for k := (t.n + i) / 2; k >= 1; k /= 2 {
		t.node[k] = t.winner(t.node[2*k], t.node[2*k+1])
	}
}

// span returns the winner among [lo, hi), -1 when the span is empty.
func (t *tournament) span(lo, hi int) int {
	left, right := -1, -1
	for l, r := lo+t.n, hi+t.n; l < r; l, r = l/2, r/2 {
		if l&1 == 1 {
			left = t.winner(left, t.node[l])
			l++
		}
		if r&1 == 1 {
			r--
			right = t.winner(t.node[r], right)
		}
	}
	return t.winner(left, right)
}

// Greedy is the paper's initial load balancing algorithm (§3.2): process
// compute objects from largest to smallest; for each, pick a destination
// that is not overloaded beyond the threshold, maximizes use of home
// patches, creates the fewest new proxies, and among those is least
// loaded.
type Greedy struct {
	// Overload is the permitted load relative to the average (the
	// paper's "overload threshold permits some overload"). Zero means
	// the default 1.15.
	Overload float64
}

// Name implements Strategy.
func (g *Greedy) Name() string { return "greedy" }

// Map implements Strategy. Greedy ignores pass: it rebuilds the mapping
// from scratch every time.
func (g *Greedy) Map(p *Problem, _ int) []int {
	overload := g.Overload
	if overload == 0 {
		overload = 1.15
	}
	assign := make([]int, len(p.Objects))
	loads := make([]float64, p.NumPE)
	if p.Background != nil {
		copy(loads, p.Background)
	}
	avail := newAvailability(p, true)

	total := 0.0
	for _, l := range loads {
		total += l
	}
	// Non-migratable objects stay put and contribute load and proxies.
	var order []int
	for i, o := range p.Objects {
		total += o.Load
		if !o.Migratable {
			assign[i] = o.PE
			loads[o.PE] += o.Load
			continue
		}
		order = append(order, i)
	}
	threshold := overload * total / float64(p.NumPE)

	// Largest object first.
	slices.SortFunc(order, func(a, b int) int {
		if la, lb := p.Objects[a].Load, p.Objects[b].Load; la != lb {
			if la > lb {
				return -1
			}
			return 1
		}
		return a - b
	})

	least := newTournament(loads, false)
	var cands, merged []int
	for _, i := range order {
		obj := &p.Objects[i]
		// Candidates, ascending: every PE already holding (home or proxy)
		// one of the object's patches — the only places the object can run
		// without new communication — plus the globally least-loaded PE as
		// an escape. Holder lists are sorted, so the union is a merge.
		cands = cands[:0]
		for _, t := range obj.Patches {
			merged = mergeUnique(merged[:0], cands, avail.holders[t])
			cands, merged = merged, cands
		}
		minPE := least.span(0, p.NumPE)
		if k, found := slices.BinarySearch(cands, minPE); !found {
			cands = slices.Insert(cands, k, minPE)
		}

		pe := pick(p, obj, cands, loads, avail, threshold)
		if pe < 0 {
			// Everything over threshold: least-loaded PE.
			pe = minPE
		}
		assign[i] = pe
		loads[pe] += obj.Load
		least.update(pe)
		for _, t := range obj.Patches {
			avail.add(t, pe)
		}
	}
	return assign
}

// mergeUnique appends to dst the union of the ascending, duplicate-free
// lists a and b, ascending and duplicate-free.
func mergeUnique(dst, a, b []int) []int {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case b[0] < a[0]:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst, a, b = append(dst, a[0]), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// pick selects the destination of one object among the sorted candidates
// at or under the threshold: the most home patches, then the fewest new
// proxies, then the least load, then the lowest PE. It returns -1 when
// every candidate is over the threshold.
func pick(p *Problem, obj *Object, cands []int, loads []float64, avail *availability, threshold float64) int {
	best := -1
	var bestHome, bestNew int
	var bestLoad float64
	for _, pe := range cands {
		if loads[pe]+obj.Load > threshold {
			continue
		}
		h := homeCount(p, obj.Patches, pe)
		nw := missing(avail, obj.Patches, pe)
		if best < 0 ||
			h > bestHome ||
			(h == bestHome && nw < bestNew) ||
			(h == bestHome && nw == bestNew && loads[pe] < bestLoad) {
			best, bestHome, bestNew, bestLoad = pe, h, nw, loads[pe]
		}
	}
	return best
}

// Refine is the paper's refinement step: only objects on overloaded
// processors move, only underloaded processors receive, and the overload
// threshold is tighter than the greedy pass's. It starts from the
// objects' current PEs.
type Refine struct {
	// Overload relative to average; zero means the default 1.06.
	Overload float64
}

// Name implements Strategy.
func (r *Refine) Name() string { return "refine" }

// Map implements Strategy. Refine ignores pass: every invocation is the
// same conservative incremental step from the objects' current PEs.
func (r *Refine) Map(p *Problem, _ int) []int {
	overload := r.Overload
	if overload == 0 {
		overload = 1.06
	}
	b := newBalance(p, overload)
	b.refine(0, p.NumPE, false)
	return b.assign
}

// balance is the working state of the incremental strategies (Refine and
// every stage of Hierarchical): the assignment being improved, the PE
// loads it gives with tournament trees over them, data availability, the
// migratable objects on each PE, and the overload threshold.
type balance struct {
	p         *Problem
	assign    []int
	loads     []float64
	least     *tournament // nil while crossGroup runs, which keeps its own
	most      *tournament // per-group extremes instead
	avail     *availability
	objsOn    [][]int
	spare     []int  // unused room that full lists in objsOn grow into
	unsorted  []bool // objsOn[pe] changed since order last sorted it
	threshold float64
}

// newBalance starts from every object on its current PE, with the
// threshold overload × the average PE load.
func newBalance(p *Problem, overload float64) *balance {
	b := &balance{p: p, assign: make([]int, len(p.Objects))}
	for i, o := range p.Objects {
		b.assign[i] = o.PE
	}
	b.loads = PELoads(p, b.assign)
	total := 0.0
	for _, l := range b.loads {
		total += l
	}
	b.threshold = overload * total / float64(p.NumPE)
	// Availability reflects the starting assignment.
	b.avail = newAvailability(p, false)
	b.objsOn = objLists(p, b.assign)
	b.unsorted = make([]bool, p.NumPE)
	for pe := range b.unsorted {
		b.unsorted[pe] = true
	}
	return b
}

// order starts a stage over PEs [lo, hi): it sorts their object lists
// heaviest first (load descending, then index ascending), dropping the
// slots moves vacated (-1). The order is total, so each list is exactly
// what a fresh bucketing of the current assignment, sorted, would give;
// during the stage, objects a PE receives follow in arrival order.
func (b *balance) order(lo, hi int) {
	for pe := lo; pe < hi; pe++ {
		if !b.unsorted[pe] {
			continue
		}
		objs := slices.DeleteFunc(b.objsOn[pe], func(i int) bool { return i < 0 })
		slices.SortFunc(objs, func(x, y int) int {
			if lx, ly := b.p.Objects[x].Load, b.p.Objects[y].Load; lx != ly {
				if lx > ly {
					return -1
				}
				return 1
			}
			return x - y
		})
		b.objsOn[pe] = objs
		b.unsorted[pe] = false
	}
}

// move migrates the oi-th object of src's list to dst.
func (b *balance) move(src, oi, dst int) {
	i := b.objsOn[src][oi]
	obj := &b.p.Objects[i]
	b.assign[i] = dst
	b.loads[src] -= obj.Load
	b.loads[dst] += obj.Load
	if b.least != nil {
		for _, pe := range [2]int{src, dst} {
			b.least.update(pe)
			b.most.update(pe)
		}
	}
	for _, t := range obj.Patches {
		b.avail.add(t, dst)
	}
	if d := b.objsOn[dst]; len(d) == cap(d) {
		// Regrow from one shared block instead of one allocation per list.
		n := max(2*len(d), 8)
		if len(b.spare) < n {
			b.spare = make([]int, max(n, len(b.p.Objects)/4))
		}
		b.objsOn[dst] = append(b.spare[:0:n], d...)
		b.spare = b.spare[n:]
	}
	b.objsOn[dst] = append(b.objsOn[dst], i)
	b.objsOn[src][oi] = -1
	b.unsorted[src], b.unsorted[dst] = true, true
}

// accepts reports whether pe may take an object of load l off src: the
// move keeps it at or below the threshold or, with relaxed set, strictly
// below src's current load.
func (b *balance) accepts(pe int, l float64, src int, relaxed bool) bool {
	x := b.loads[pe] + l
	return !(x > b.threshold) || relaxed && x < b.loads[src]
}

// shed moves the first object on src's list (heaviest first) that a PE
// of [lo, hi) accepts to its best destination there, and returns that
// destination, or -1 when no object can move. least is the span's
// least-loaded PE, the lowest on ties. Acceptance only gets harder as a
// PE's load grows, so some PE accepts an object exactly when least does
// (or none does, when least is src: then every PE of the span weighs as
// much as src).
func (b *balance) shed(src, lo, hi, least int, relaxed bool) int {
	if least == src {
		return -1
	}
	for oi, i := range b.objsOn[src] {
		if i >= 0 && b.accepts(least, b.p.Objects[i].Load, src, relaxed) {
			dst := b.destination(&b.p.Objects[i], src, lo, hi, least, relaxed)
			b.move(src, oi, dst)
			return dst
		}
	}
	return -1
}

// destination returns where in [lo, hi) an object least accepts is best
// moved off src: among the accepting PEs other than src, the one with the
// fewest new proxies, then the least load, then the lowest index.
//
// Only two kinds of PE can win. A PE already holding one of the object's
// patches (a holder) needs fewer new proxies than any other; every other
// PE misses all of them, so among those only the least-loaded one can
// win. Weighing the holders in the span against least therefore picks
// exactly what a scan of the whole span would.
func (b *balance) destination(obj *Object, src, lo, hi, least int, relaxed bool) int {
	best, bestNew, bestLoad := least, missing(b.avail, obj.Patches, least), b.loads[least]
	for _, t := range obj.Patches {
		h := b.avail.holders[t]
		from, _ := slices.BinarySearch(h, lo)
		for _, pe := range h[from:] {
			if pe >= hi {
				break
			}
			if pe == src || !b.accepts(pe, obj.Load, src, relaxed) {
				continue
			}
			nw, l := missing(b.avail, obj.Patches, pe), b.loads[pe]
			if nw < bestNew || nw == bestNew && (l < bestLoad || l == bestLoad && pe < best) {
				best, bestNew, bestLoad = pe, nw, l
			}
		}
	}
	return best
}

// refine is the conservative shedding loop shared by Refine and the
// per-group stages of Hierarchical, over the PEs [lo, hi) alone: sources
// and destinations both lie in the range. It moves objects off PEs above
// the threshold onto PEs that stay at or below it; because a source is
// only selected while above the threshold and a destination only
// accepted while the move leaves it at or below, the maximum PE load
// never increases.
//
// With relaxed set, a destination is also accepted when the move leaves
// it strictly below the source's current load. At thousands of PEs the
// overload threshold drops below single-object loads and the strict
// guard deadlocks with all the work still piled on the patch-home PEs;
// the relaxed guard keeps draining them. The maximum still never
// increases (the destination ends below a load that already existed),
// and each move strictly reduces the sum of squared PE loads, so the
// loop cannot revisit a state.
func (b *balance) refine(lo, hi int, relaxed bool) {
	if b.least == nil {
		b.least = newTournament(b.loads, false)
		b.most = newTournament(b.loads, true)
	}
	// In the strict regime no object moves twice (destinations stay at or
	// below the threshold and never become sources), so the object count
	// bounds the loop; relaxed moves strictly shrink the sum of squared
	// loads, so a small multiple of it covers the re-shuffling they allow.
	for iter := 0; iter < 4*len(b.p.Objects)+b.p.NumPE+16; iter++ {
		// The most overloaded PE, the lowest on ties, sheds its heaviest
		// object that fits somewhere: to the PE with the fewest new
		// proxies, then the least loaded, then the lowest. When it cannot
		// shed anything, stop: every other overloaded PE is lighter but
		// faces the same receivers, so retrying others rarely helps — like
		// the paper's conservative refinement.
		src := b.most.span(lo, hi)
		if !(b.loads[src] > b.threshold) {
			break
		}
		if iter == 0 {
			// Sort only a span with a PE above the threshold. Nothing has
			// moved yet, so the lists are those an up-front sort gives.
			b.order(lo, hi)
		}
		if b.shed(src, lo, hi, b.least.span(lo, hi), relaxed) < 0 {
			break
		}
	}
}

// Diffusion models the paper's distributed strategies (§2.2): no
// processor collects global information; instead each processor repeatedly
// compares load with its ring neighbors and hands its smallest objects to
// a lighter neighbor. Cheaper to run at scale than the centralized
// strategies but lower final quality — the paper notes centralized
// strategies are worth their cost for molecular dynamics because load
// changes slowly.
type Diffusion struct {
	// Iterations of neighbor exchange (0 = default 3·√NumPE).
	Iterations int
}

// Name implements Strategy.
func (d *Diffusion) Name() string { return "diffusion" }

// Map implements Strategy. Diffusion ignores pass.
func (d *Diffusion) Map(p *Problem, _ int) []int {
	assign := make([]int, len(p.Objects))
	for i, o := range p.Objects {
		assign[i] = o.PE
	}
	loads := PELoads(p, assign)

	// Objects on each PE, smallest first (cheap objects diffuse first,
	// keeping the moves fine-grained).
	objsOn := objLists(p, assign)
	sortObjs := func(pe int) {
		sort.Slice(objsOn[pe], func(a, b int) bool {
			la, lb := p.Objects[objsOn[pe][a]].Load, p.Objects[objsOn[pe][b]].Load
			if la != lb {
				return la < lb
			}
			return objsOn[pe][a] < objsOn[pe][b]
		})
	}
	for pe := range objsOn {
		sortObjs(pe)
	}

	iters := d.Iterations
	if iters == 0 {
		iters = 3 * int(sqrtCeil(p.NumPE))
	}
	for it := 0; it < iters; it++ {
		moved := false
		for pe := 0; pe < p.NumPE; pe++ {
			for side := -1; side <= 1; side += 2 {
				nb := mod(pe+side, p.NumPE)
				if nb == pe {
					continue
				}
				diff := loads[pe] - loads[nb]
				if diff <= 0 {
					continue
				}
				// Push objects while they fit in half the gap.
				pushed := false
				for len(objsOn[pe]) > 0 {
					i := objsOn[pe][0]
					l := p.Objects[i].Load
					if l > diff/2 || l == 0 {
						break
					}
					objsOn[pe] = objsOn[pe][1:]
					assign[i] = nb
					loads[pe] -= l
					loads[nb] += l
					diff = loads[pe] - loads[nb]
					objsOn[nb] = append(objsOn[nb], i)
					pushed = true
				}
				if pushed {
					// Only the receiver's list lost its order.
					sortObjs(nb)
					moved = true
				}
			}
		}
		if !moved {
			break
		}
	}
	return assign
}

func sqrtCeil(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// NoOp keeps every object where it is (baseline for ablations). Its
// registry name is "none"; when a simulation is configured with it the
// cluster simulation also skips the measurement epochs entirely.
type NoOp struct{}

// Name implements Strategy.
func (NoOp) Name() string { return "none" }

// Map implements Strategy.
func (NoOp) Map(p *Problem, _ int) []int {
	assign := make([]int, len(p.Objects))
	for i, o := range p.Objects {
		assign[i] = o.PE
	}
	return assign
}
