// Package core implements the paper's parallel molecular dynamics
// structure: home patches that own cubes of space and integrate their
// atoms, proxy patches that stand in for home patches on remote
// processors, and the hybrid force/spatial decomposition's compute
// objects (nonbonded self and pair computes, intra- and inter-cube bonded
// computes), together with grainsize splitting (§4.2.1), separated
// migratable bonded computes (§4.2.2), optimized multicast (§4.2.3), and
// the three-stage measurement-based load balancing of §3.2 — all running
// on the simulated Charm++/Converse machine.
package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"gonamd/internal/machine"
	"gonamd/internal/spatial"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

// PairCount is the nonbonded work between one pair of patches (or within
// one patch).
type PairCount struct {
	Within int64 // atom pairs inside the cutoff (full interactions)
	Listed int64 // atom pairs inside the pairlist distance (checked)
}

// BondedGroup aggregates the bonded terms whose base patch (the
// coordinate-wise minimum of the constituent atoms' patches, paper §3)
// is Base but which span multiple patches.
type BondedGroup struct {
	Base    int
	Patches []int // all patches whose data the group requires (incl. Base)
	Terms   int
}

// Workload is the static work description of one benchmark system on one
// patch grid: everything the cluster simulation needs, with the actual
// per-cube-pair interaction counts measured from the real geometry. It is
// expensive to build (exact pair counting) and is meant to be built once
// per system and shared across simulations.
type Workload struct {
	Name        string
	Grid        *spatial.Grid
	PatchAtoms  []int       // atoms per patch
	Self        []PairCount // per-patch within-cube work
	Pairs       [][2]int    // neighboring patch pairs (grid.NeighborPairs order)
	PairCounts  []PairCount // work per entry of Pairs
	IntraTerms  []int       // per patch: bonded terms entirely inside it
	InterGroups []BondedGroup
	TotalAtoms  int
	Cutoff      float64
	ListDist    float64
}

// BuildWorkload measures the per-patch and per-patch-pair work of a
// system. listDist is the pairlist distance (> cutoff; NAMD's
// "pairlistdist", typically cutoff + 1.5 Å).
func BuildWorkload(name string, sys *topology.System, st *topology.State, grid *spatial.Grid, cutoff, listDist float64) (*Workload, error) {
	if listDist < cutoff {
		return nil, fmt.Errorf("core: listDist %g < cutoff %g", listDist, cutoff)
	}
	np := grid.NumPatches()
	w := &Workload{
		Name:       name,
		Grid:       grid,
		PatchAtoms: make([]int, np),
		Self:       make([]PairCount, np),
		Pairs:      grid.NeighborPairs(),
		IntraTerms: make([]int, np),
		TotalAtoms: sys.N(),
		Cutoff:     cutoff,
		ListDist:   listDist,
	}
	w.PairCounts = make([]PairCount, len(w.Pairs))

	cut2 := cutoff * cutoff
	list2 := listDist * listDist
	box := sys.Box

	// Each patch's positions, grouped by sub-cell (see splitPatch).
	bins := grid.Bin(st.Pos)
	atomPatch := make([]int32, sys.N())
	patchPos := make([][]vec.V3, np)
	cells := make([][]subCell, np)
	var key []int
	for p, atoms := range bins {
		w.PatchAtoms[p] = len(atoms)
		for _, ai := range atoms {
			atomPatch[ai] = int32(p)
		}
		patchPos[p], cells[p], key = splitPatch(grid, p, st.Pos, atoms, box, key)
	}

	// The census: every patch's own pairs, then every neighbouring patch
	// pair's. Items are claimed in chunks by up to GOMAXPROCS goroutines;
	// each writes only its own items' counts, and integer counts do not
	// depend on the order they are taken in.
	//
	// A pair of sub-cells is skipped when no two of their atoms can be
	// within listDist, with a relative margin far above the rounding of any
	// computed distance, so every skipped pair is one the full loop would
	// not have counted. Inside, an atom further than listDist from the
	// neighbour patch's cell cannot pair with any atom inside it. The
	// minimum image is taken once per pair of sub-cells, or per patch for
	// its own pairs, where one shift serves every atom pair (see
	// census.shift).
	skip2 := list2 * (1 + 1e-9)
	cs := census{box: box, list2: list2, cut2: cut2}
	measure := func(item int, near []vec.V3) []vec.V3 {
		if item < np {
			var c PairCount
			pos := patchPos[item]
			if len(pos) > 0 {
				lo, hi := spread(cells[item])
				s, ok := cs.shift(lo, hi, lo, hi)
				for i, pa := range pos {
					cs.count(&c, pa, pos[i+1:], s, ok)
				}
			}
			w.Self[item] = c
			return near
		}
		pi := item - np
		a, b := w.Pairs[pi][0], w.Pairs[pi][1]
		if len(patchPos[a]) > len(patchPos[b]) {
			a, b = b, a
		}
		posA, posB := patchPos[a], patchPos[b]
		bxLo, bxHi := patchBounds(grid, b)
		var c PairCount
		for i := range cells[a] {
			ca := &cells[a][i]
			near = near[:0]
			for _, pa := range posA[ca.start:ca.end] {
				if boxDist2(pa, bxLo, bxHi, box) < list2 {
					near = append(near, pa)
				}
			}
			if len(near) == 0 {
				continue
			}
			for j := range cells[b] {
				cb := &cells[b][j]
				if cellDist2(ca, cb, box) >= skip2 {
					continue
				}
				s, ok := cs.shift(ca.min, ca.max, cb.min, cb.max)
				for _, pa := range near {
					cs.count(&c, pa, posB[cb.start:cb.end], s, ok)
				}
			}
		}
		w.PairCounts[pi] = c
		return near
	}
	items := np + len(w.Pairs)
	const chunk = 16
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := min(runtime.GOMAXPROCS(0), (items+chunk-1)/chunk); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var near []vec.V3
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= items {
					return
				}
				for item := lo; item < min(lo+chunk, items); item++ {
					near = measure(item, near)
				}
			}
		}()
	}
	wg.Wait()

	// Bonded terms: fully-intra terms count toward their patch; terms
	// spanning patches aggregate into per-base-patch groups. groups[b]
	// collects the terms based at patch b; a term has at most four atoms,
	// so its patch set fits a fixed array.
	groups := make([]BondedGroup, np)
	addTerm := func(atoms [4]int32, n int) {
		var ids [4]int
		k := 0
		for _, ai := range atoms[:n] {
			p := int(atomPatch[ai])
			if !slices.Contains(ids[:k], p) {
				ids[k] = p
				k++
			}
		}
		if k == 1 {
			w.IntraTerms[ids[0]]++
			return
		}
		slices.Sort(ids[:k])
		g := &groups[grid.BaseOf(ids[:k])]
		g.Terms++
		for _, p := range ids[:k] {
			if !slices.Contains(g.Patches, p) {
				g.Patches = append(g.Patches, p)
			}
		}
	}
	for _, t := range sys.Bonds {
		addTerm([4]int32{t.I, t.J}, 2)
	}
	for _, t := range sys.Angles {
		addTerm([4]int32{t.I, t.J, t.K}, 3)
	}
	for _, t := range sys.Dihedrals {
		addTerm([4]int32{t.I, t.J, t.K, t.L}, 4)
	}
	for _, t := range sys.Impropers {
		addTerm([4]int32{t.I, t.J, t.K, t.L}, 4)
	}
	for b, g := range groups {
		if g.Terms > 0 {
			g.Base = b
			slices.Sort(g.Patches)
			w.InterGroups = append(w.InterGroups, g)
		}
	}
	return w, nil
}

// census counts atom pairs inside the pairlist distance (list2, squared)
// and the cutoff (cut2 ≤ list2) in the periodic box.
type census struct {
	box         vec.V3
	list2, cut2 float64
}

// count adds to c the pairs of pa with each of pbs inside list2 (Listed)
// and inside cut2 (Within). With shifted, s is the minimum-image shift
// that vec.MinImage subtracts from every displacement pa − pb, per axis
// (see shift), and r² is its squared norm after that shift, the bits
// vec.MinImage2 would return; without it, vec.MinImage2 itself runs. The
// counts are the sign bits of r² − list² and r² − cut², set exactly when
// r² is below the bound, so the shifted loop takes no data-dependent
// branch.
func (cs *census) count(c *PairCount, pa vec.V3, pbs []vec.V3, s vec.V3, shifted bool) {
	var listed, within uint64
	if shifted {
		for _, pb := range pbs {
			dx, dy, dz := pa.X-pb.X-s.X, pa.Y-pb.Y-s.Y, pa.Z-pb.Z-s.Z
			r2 := dx*dx + dy*dy + dz*dz
			listed += math.Float64bits(r2-cs.list2) >> 63
			within += math.Float64bits(r2-cs.cut2) >> 63
		}
	} else {
		for _, pb := range pbs {
			r2 := vec.MinImage2(pa, pb, cs.box)
			listed += math.Float64bits(r2-cs.list2) >> 63
			within += math.Float64bits(r2-cs.cut2) >> 63
		}
	}
	c.Listed += int64(listed)
	c.Within += int64(within)
}

// shift returns, per axis, the multiple of the box length that
// vec.MinImage subtracts from every displacement a − b with a in
// [aMin, aMax] and b in [bMin, bMax], and whether one shift serves all of
// them on every axis. Subtraction rounds monotonically, so each computed
// a − b lies within [aMin − bMax, aMax − bMin] as computed. Where that
// range stays below 3L/8 in magnitude, d/L rounds to ±0 and the shift is
// 0; between 5L/8 and 11L/8 it rounds to ±1 and the shift is ±L, which
// MinImage subtracts as L·(±1) = ±L exactly. The eighths leave room far
// above the rounding of the quotient and of the bounds.
func (cs *census) shift(aMin, aMax, bMin, bMax vec.V3) (vec.V3, bool) {
	x, okx := axisShift(aMin.X-bMax.X, aMax.X-bMin.X, cs.box.X)
	y, oky := axisShift(aMin.Y-bMax.Y, aMax.Y-bMin.Y, cs.box.Y)
	z, okz := axisShift(aMin.Z-bMax.Z, aMax.Z-bMin.Z, cs.box.Z)
	return vec.New(x, y, z), okx && oky && okz
}

// axisShift is one axis of census.shift: the shift of every displacement
// in [lo, hi] on a ring of length l.
func axisShift(lo, hi, l float64) (float64, bool) {
	near, far0, far1 := 0.375*l, 0.625*l, 1.375*l
	switch {
	case -near < lo && hi < near:
		return 0, true
	case far0 < lo && hi < far1:
		return l, true
	case -far1 < lo && hi < -far0:
		return -l, true
	}
	return 0, false
}

// Counts returns the aggregate work counts for machine-model calibration
// and GFLOPS accounting.
func (w *Workload) Counts() machine.Counts {
	var c machine.Counts
	for _, s := range w.Self {
		c.Pairs += s.Within
		c.Listed += s.Listed
	}
	for _, p := range w.PairCounts {
		c.Pairs += p.Within
		c.Listed += p.Listed
	}
	for _, t := range w.IntraTerms {
		c.Bonded += int64(t)
	}
	for _, g := range w.InterGroups {
		c.Bonded += int64(g.Terms)
	}
	c.Atoms = int64(w.TotalAtoms)
	return c
}

// patchBounds returns the axis-aligned cell of patch id as two corners.
func patchBounds(g *spatial.Grid, id int) (lo, hi vec.V3) {
	x, y, z := g.Coords(id)
	lo = vec.New(float64(x)*g.Size.X, float64(y)*g.Size.Y, float64(z)*g.Size.Z)
	hi = lo.Add(g.Size)
	return
}

// boxDist2 returns the squared minimum-image distance from point p to the
// axis-aligned box [lo, hi] in a periodic box of size box.
func boxDist2(p, lo, hi, box vec.V3) float64 {
	d2 := 0.0
	for c := 0; c < 3; c++ {
		x := p.Comp(c)
		l, h, L := lo.Comp(c), hi.Comp(c), box.Comp(c)
		if x >= l && x <= h {
			continue
		}
		dl := circDist(x, l, L)
		dh := circDist(x, h, L)
		d := math.Min(dl, dh)
		d2 += d * d
	}
	return d2
}

// subCell is a run of a patch's atom positions, pos[start:end] as
// splitPatch lays them out, and the bounds of those positions, both
// wrapped into the box and as stored.
type subCell struct {
	lo, hi     vec.V3 // bounds of the wrapped positions
	min, max   vec.V3 // bounds of the positions as stored
	start, end int
}

// splitPatch splits patch id's cell into 3×3×3 sub-cells and returns the
// positions of its atoms grouped by sub-cell, with the non-empty
// sub-cells, whose bounds are taken in the periodic box box. key is
// scratch, returned for reuse.
func splitPatch(g *spatial.Grid, id int, allPos []vec.V3, atoms []int32, box vec.V3, key []int) ([]vec.V3, []subCell, []int) {
	cellLo, _ := patchBounds(g, id)
	sub := g.Size.Scale(1.0 / 3)
	idx := func(x, lo, size float64) int { return min(max(int((x-lo)/size), 0), 2) }
	key = slices.Grow(key[:0], len(atoms))[:len(atoms)]
	var start [28]int
	for k, ai := range atoms {
		w := vec.Wrap(allPos[ai], box)
		key[k] = idx(w.X, cellLo.X, sub.X) + 3*idx(w.Y, cellLo.Y, sub.Y) + 9*idx(w.Z, cellLo.Z, sub.Z)
		start[key[k]+1]++
	}
	for c := 0; c < 27; c++ {
		start[c+1] += start[c]
	}
	pos := make([]vec.V3, len(atoms))
	next := start
	for k, ai := range atoms {
		pos[next[key[k]]] = allPos[ai]
		next[key[k]]++
	}

	var cells []subCell
	for c := 0; c < 27; c++ {
		if start[c] == start[c+1] {
			continue
		}
		sc := subCell{start: start[c], end: start[c+1]}
		for k, p := range pos[sc.start:sc.end] {
			w := vec.Wrap(p, box)
			if k == 0 {
				sc.lo, sc.hi, sc.min, sc.max = w, w, p, p
				continue
			}
			sc.lo, sc.hi = vec.Min(sc.lo, w), vec.Max(sc.hi, w)
			sc.min, sc.max = vec.Min(sc.min, p), vec.Max(sc.max, p)
		}
		cells = append(cells, sc)
	}
	return pos, cells, key
}

// spread returns the bounds of the stored positions of every sub-cell in
// cells, which must not be empty.
func spread(cells []subCell) (lo, hi vec.V3) {
	lo, hi = cells[0].min, cells[0].max
	for _, sc := range cells[1:] {
		lo, hi = vec.Min(lo, sc.min), vec.Max(hi, sc.max)
	}
	return lo, hi
}

// cellDist2 is a lower bound on the squared minimum-image distance
// between any atom of sub-cell a and any of sub-cell b: per axis, the gap
// between their bounds on the ring of the box's length.
func cellDist2(a, b *subCell, box vec.V3) float64 {
	gx := ringGap(a.lo.X, a.hi.X, b.lo.X, b.hi.X, box.X)
	gy := ringGap(a.lo.Y, a.hi.Y, b.lo.Y, b.hi.Y, box.Y)
	gz := ringGap(a.lo.Z, a.hi.Z, b.lo.Z, b.hi.Z, box.Z)
	return gx*gx + gy*gy + gz*gz
}

// ringGap is the gap between the intervals [aLo, aHi] and [bLo, bHi] on
// a ring of length l.
func ringGap(aLo, aHi, bLo, bHi, l float64) float64 {
	gap := max(0, bLo-aHi, aLo-bHi)
	return min(gap, max(0, bLo+l-aHi), max(0, aLo+l-bHi))
}

// circDist is the circular distance between a and b on a ring of size L.
func circDist(a, b, L float64) float64 {
	d := math.Abs(a - b)
	if d > L/2 {
		d = L - d
	}
	return d
}
