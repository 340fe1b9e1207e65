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
	"slices"
	"sort"

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

	// Within-patch pairs.
	for p := 0; p < np; p++ {
		pos := patchPos[p]
		var c PairCount
		for i := 0; i < len(pos); i++ {
			for j := i + 1; j < len(pos); j++ {
				r2 := minImage2(pos[i], pos[j], box)
				if r2 < list2 {
					c.Listed++
					if r2 < cut2 {
						c.Within++
					}
				}
			}
		}
		w.Self[p] = c
	}

	// Cross-patch pairs. A pair of sub-cells is skipped when no two of
	// their atoms can be within listDist, with a relative margin far above
	// the rounding of any computed distance, so every skipped pair is one
	// the full loop would not have counted. Inside, an atom further than
	// listDist from the neighbor patch's cell cannot pair with any atom
	// inside it.
	skip2 := list2 * (1 + 1e-9)
	var near []vec.V3
	for pi, pr := range w.Pairs {
		a, b := pr[0], pr[1]
		if len(patchPos[a]) > len(patchPos[b]) {
			a, b = b, a
		}
		posA, posB := patchPos[a], patchPos[b]
		bxLo, bxHi := patchBounds(grid, b)
		var c PairCount
		for _, ca := range cells[a] {
			near = near[:0]
			for _, pa := range posA[ca.start:ca.end] {
				if boxDist2(pa, bxLo, bxHi, box) < list2 {
					near = append(near, pa)
				}
			}
			if len(near) == 0 {
				continue
			}
			for _, cb := range cells[b] {
				if cellDist2(ca, cb, box) >= skip2 {
					continue
				}
				for _, pa := range near {
					for _, pb := range posB[cb.start:cb.end] {
						r2 := minImage2(pa, pb, box)
						if r2 < list2 {
							c.Listed++
							if r2 < cut2 {
								c.Within++
							}
						}
					}
				}
			}
		}
		w.PairCounts[pi] = c
	}

	// Bonded terms: fully-intra terms count toward their patch; terms
	// spanning patches aggregate into per-base-patch groups.
	inter := map[int]*BondedGroup{}
	addTerm := func(atoms ...int32) {
		patchSet := map[int]bool{}
		for _, ai := range atoms {
			patchSet[int(atomPatch[ai])] = true
		}
		if len(patchSet) == 1 {
			for p := range patchSet {
				w.IntraTerms[p]++
			}
			return
		}
		ids := make([]int, 0, len(patchSet))
		for p := range patchSet {
			ids = append(ids, p)
		}
		sort.Ints(ids)
		base := grid.BaseOf(ids)
		g := inter[base]
		if g == nil {
			g = &BondedGroup{Base: base}
			inter[base] = g
		}
		g.Terms++
		for _, p := range ids {
			found := false
			for _, q := range g.Patches {
				if q == p {
					found = true
					break
				}
			}
			if !found {
				g.Patches = append(g.Patches, p)
			}
		}
	}
	for _, t := range sys.Bonds {
		addTerm(t.I, t.J)
	}
	for _, t := range sys.Angles {
		addTerm(t.I, t.J, t.K)
	}
	for _, t := range sys.Dihedrals {
		addTerm(t.I, t.J, t.K, t.L)
	}
	for _, t := range sys.Impropers {
		addTerm(t.I, t.J, t.K, t.L)
	}
	bases := make([]int, 0, len(inter))
	for b := range inter {
		bases = append(bases, b)
	}
	sort.Ints(bases)
	for _, b := range bases {
		g := inter[b]
		sort.Ints(g.Patches)
		w.InterGroups = append(w.InterGroups, *g)
	}
	return w, nil
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

// minImage2 is vec.MinImage(a, b, box).Norm2(), bit for bit, without the
// rounding call where it cannot change anything: math.Round returns ±0
// for |d/L| < ½, and subtracting ±0 leaves d's square as it was.
func minImage2(a, b, box vec.V3) float64 {
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	if q := dx / box.X; !(math.Abs(q) < 0.5) {
		dx -= box.X * math.Round(q)
	}
	if q := dy / box.Y; !(math.Abs(q) < 0.5) {
		dy -= box.Y * math.Round(q)
	}
	if q := dz / box.Z; !(math.Abs(q) < 0.5) {
		dz -= box.Z * math.Round(q)
	}
	return dx*dx + dy*dy + dz*dz
}

// subCell is a run of a patch's atom positions, pos[start:end] as
// splitPatch lays them out, and the bounds of those positions wrapped
// into the box.
type subCell struct {
	lo, hi     vec.V3
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
				sc.lo, sc.hi = w, w
				continue
			}
			sc.lo = vec.New(math.Min(sc.lo.X, w.X), math.Min(sc.lo.Y, w.Y), math.Min(sc.lo.Z, w.Z))
			sc.hi = vec.New(math.Max(sc.hi.X, w.X), math.Max(sc.hi.Y, w.Y), math.Max(sc.hi.Z, w.Z))
		}
		cells = append(cells, sc)
	}
	return pos, cells, key
}

// cellDist2 is a lower bound on the squared minimum-image distance
// between any atom of sub-cell a and any of sub-cell b: per axis, the gap
// between their bounds on the ring of the box's length.
func cellDist2(a, b subCell, box vec.V3) float64 {
	d2 := 0.0
	for c := 0; c < 3; c++ {
		aLo, aHi, bLo, bHi, L := a.lo.Comp(c), a.hi.Comp(c), b.lo.Comp(c), b.hi.Comp(c), box.Comp(c)
		gap := max(0, bLo-aHi, aLo-bHi)
		gap = min(gap, max(0, bLo+L-aHi), max(0, aLo+L-bHi))
		d2 += gap * gap
	}
	return d2
}

// circDist is the circular distance between a and b on a ring of size L.
func circDist(a, b, L float64) float64 {
	d := math.Abs(a - b)
	if d > L/2 {
		d = L - d
	}
	return d
}
