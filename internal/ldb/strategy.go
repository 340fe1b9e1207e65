package ldb

// Stager is implemented by composite strategies whose balancing passes
// consist of multiple stages. Callers that record per-stage statistics
// (the cluster simulation's LBStats) run the stages themselves, feeding
// each stage's assignment back as the objects' current PEs before the
// next; Map remains the single-call form that does the same internally.
type Stager interface {
	Stages(pass int) []Strategy
}

// applyStages runs the stages over a private copy of the problem,
// threading each stage's assignment into the next stage's starting PEs.
func applyStages(p *Problem, pass int, stages []Strategy) []int {
	p2 := *p
	p2.Objects = append([]Object(nil), p.Objects...)
	var assign []int
	for _, st := range stages {
		assign = st.Map(&p2, pass)
		for i := range p2.Objects {
			p2.Objects[i].PE = assign[i]
		}
	}
	return assign
}

// GreedyRefine is the paper's centralized strategy pair as one pluggable
// unit: the greedy proxy-aware initial algorithm followed by conservative
// refinement on pass 0, refinement alone on later passes. This is the
// default strategy and reproduces the historical three-stage schedule of
// the cluster simulation (warm → greedy+refine → refine → measure).
type GreedyRefine struct {
	// GreedyOverload is the pass-0 greedy threshold relative to the
	// average load; zero means the Greedy default (1.15).
	GreedyOverload float64
	// RefineOverload is the refinement threshold; zero means the Refine
	// default (1.06).
	RefineOverload float64
}

// Name implements Strategy.
func (s *GreedyRefine) Name() string { return "greedy+refine" }

// Stages implements Stager.
func (s *GreedyRefine) Stages(pass int) []Strategy {
	if pass == 0 {
		return []Strategy{&Greedy{Overload: s.GreedyOverload}, &Refine{Overload: s.RefineOverload}}
	}
	return []Strategy{&Refine{Overload: s.RefineOverload}}
}

// Map implements Strategy.
func (s *GreedyRefine) Map(p *Problem, pass int) []int {
	return applyStages(p, pass, s.Stages(pass))
}

// RefineOnly is the paper's incremental balancer for very large runs
// (§2.2): never recompute the mapping from scratch — reuse the previous
// assignment wholesale and migrate only the few objects needed to bring
// processors above the overload threshold back under it. Migration volume
// stays small and the modeled max-PE load never exceeds that of the input
// mapping.
type RefineOnly struct {
	// Overload relative to average; zero means the default 1.06.
	Overload float64
}

// Name implements Strategy.
func (r *RefineOnly) Name() string { return "refine-only" }

// Map implements Strategy. Every pass is the same conservative
// refinement from the objects' current PEs.
func (r *RefineOnly) Map(p *Problem, _ int) []int {
	return (&Refine{Overload: r.Overload}).Map(p, 0)
}

// Hierarchical is the scalable strategy for thousand-PE runs: processors
// are partitioned into contiguous groups of GroupSize; each group refines
// its own mapping using only group-local information, then a cross-group
// pass moves work between groups guided by group-aggregate loads, and a
// final per-group sweep smooths the receivers. No stage ever places an
// object onto a PE that would exceed the global overload threshold, so
// like RefineOnly the modeled max-PE load never exceeds that of the input
// mapping. The centralized GreedyRefine produces better mappings at small
// PE counts (it sees everything); hierarchical wins past a few hundred
// PEs, where the migration bursts a from-scratch mapping triggers stop
// amortizing — the crossover the paper's scaling discussion predicts.
// Its decision cost never scans the machine: a move in a group stage
// costs O(log PEs) tree queries plus the object's patch holders inside
// the group, and a cross-group move O(groups + GroupSize) (DESIGN.md,
// "Load balancing at scale").
type Hierarchical struct {
	// GroupSize is the number of PEs per balancing group; zero means the
	// default 128. The last group may be smaller.
	GroupSize int
	// Overload relative to the global average; zero means the default 1.06.
	Overload float64
}

// Name implements Strategy.
func (h *Hierarchical) Name() string { return "hierarchical" }

// Map implements Strategy. pass is ignored: every pass is incremental.
func (h *Hierarchical) Map(p *Problem, _ int) []int {
	gs := h.GroupSize
	if gs <= 0 {
		gs = 128
	}
	overload := h.Overload
	if overload == 0 {
		overload = 1.06
	}
	b := newBalance(p, overload)
	groups := groupSpans(p.NumPE, gs)

	// Stage 1: every group refines independently with group-local moves.
	for _, g := range groups {
		b.refine(g[0], g[1], true)
	}
	if len(groups) <= 1 {
		return b.assign
	}

	// Stage 2: cross-group pass over group-aggregate loads. A group whose
	// PEs still exceed the threshold after local refinement is saturated;
	// shed its heaviest objects to the least-loaded PE of the group with
	// the lowest aggregate (average) load. The threshold guard on the
	// destination preserves the never-worsen property.
	b.crossGroup(groups)

	// Stage 3: smooth the receiving groups locally.
	for _, g := range groups {
		b.refine(g[0], g[1], true)
	}
	return b.assign
}

// groupSpans cuts npe PEs into contiguous [lo, hi) groups of gs; the last
// may be smaller.
func groupSpans(npe, gs int) [][2]int {
	var out [][2]int
	for lo := 0; lo < npe; lo += gs {
		out = append(out, [2]int{lo, min(lo+gs, npe)})
	}
	return out
}

// crossGroup moves objects between groups guided by group-aggregate
// loads (see groupLoads).
func (b *balance) crossGroup(groups [][2]int) {
	p, loads := b.p, b.loads
	b.order(0, p.NumPE)
	b.least, b.most = nil, nil
	gl := newGroupLoads(groups, loads, b.threshold)

	// Threshold-respecting moves park each object at most once (the
	// destination never becomes a source again); relaxed moves strictly
	// shrink the sum of squared PE loads, so a small multiple of the
	// object count bounds the loop. A fresh mapping can need most of it:
	// at thousands of PEs the patch-home PEs start with nearly all the
	// work and everything else idle.
	for iter := 0; iter <= 4*len(p.Objects)+p.NumPE; iter++ {
		// Source: the over-threshold PE in the group with the highest
		// aggregate load (group chosen by aggregate, PE by its own load),
		// i.e. the maximum of (group average, load, -index).
		gsrc, src := -1, -1
		for g := range groups {
			pe := gl.top(g)
			if pe < 0 {
				continue
			}
			if gsrc < 0 || gl.avg[g] > gl.avg[gsrc] || (gl.avg[g] == gl.avg[gsrc] && loads[pe] > loads[src]) {
				gsrc, src = g, pe
			}
		}
		if src < 0 {
			return
		}
		// Destination group: lowest aggregate load, excluding the source
		// group (its PEs already refused this load locally).
		gdst := -1
		for g := range groups {
			if g == gsrc {
				continue
			}
			if gdst < 0 || gl.avg[g] < gl.avg[gdst] {
				gdst = g
			}
		}
		// Heaviest object on src with an acceptable PE in the destination
		// group. A PE is acceptable when the move keeps it at or below the
		// threshold, or — past the granularity limit, where single objects
		// exceed the threshold — strictly below the source's current load
		// (which preserves the never-worsen guarantee). Among acceptable
		// PEs prefer the fewest new proxies, then the least loaded: the
		// cross-group move is where proxies are created, so placing by
		// load alone would flood the multicast layer.
		dst := b.shed(src, groups[gdst][0], groups[gdst][1], gl.least(gdst), true)
		if dst < 0 {
			// The lightest foreign group cannot take anything from the
			// worst source: no cross-group move can help further.
			return
		}
		gl.rescan(src)
		gl.rescan(dst)
	}
}

// groupLoads keeps, for contiguous groups of PEs, each group's average
// load, its heaviest over-threshold PE (-1 when none) and its
// least-loaded PE, the lowest on ties. They are running values over the
// group's PEs, kept per PE as the prefix up to and including it, so a
// changed load is folded in by rescanning from its PE to the end of the
// group: the same left-to-right sum as a full recomputation, so every
// average is bitwise what the full one gives.
type groupLoads struct {
	groups       [][2]int
	size         int // PEs per group; the last may have fewer
	loads        []float64
	threshold    float64
	sum          []float64 // per PE: the running sum
	heavy, light []int32   // per PE: the running heaviest over-threshold and least-loaded PE
	avg          []float64 // per group
}

func newGroupLoads(groups [][2]int, loads []float64, threshold float64) *groupLoads {
	gl := &groupLoads{
		groups:    groups,
		size:      groups[0][1] - groups[0][0],
		loads:     loads,
		threshold: threshold,
		sum:       make([]float64, len(loads)),
		heavy:     make([]int32, len(loads)),
		light:     make([]int32, len(loads)),
		avg:       make([]float64, len(groups)),
	}
	for _, g := range groups {
		gl.rescan(g[0])
	}
	return gl
}

func (gl *groupLoads) top(g int) int   { return int(gl.heavy[gl.groups[g][1]-1]) }
func (gl *groupLoads) least(g int) int { return int(gl.light[gl.groups[g][1]-1]) }

// rescan refolds the running values of pe's group from pe on.
func (gl *groupLoads) rescan(pe int) {
	g := pe / gl.size
	lo, hi := gl.groups[g][0], gl.groups[g][1]
	sum, top, least := 0.0, int32(-1), int32(pe)
	if pe > lo {
		sum, top, least = gl.sum[pe-1], gl.heavy[pe-1], gl.light[pe-1]
	}
	topLoad, leastLoad := gl.threshold, gl.loads[least]
	if top >= 0 {
		topLoad = gl.loads[top]
	}
	loads := gl.loads[pe:hi]
	sums, heavy, light := gl.sum[pe:hi], gl.heavy[pe:hi], gl.light[pe:hi]
	sums, heavy, light = sums[:len(loads)], heavy[:len(loads)], light[:len(loads)]
	for k, l := range loads {
		sum += l
		if l > topLoad {
			top, topLoad = int32(pe+k), l
		}
		if l < leastLoad {
			least, leastLoad = int32(pe+k), l
		}
		sums[k], heavy[k], light[k] = sum, top, least
	}
	gl.avg[g] = sum / float64(hi-lo)
}
