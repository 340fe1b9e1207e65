// Package spatial implements the paper's spatial decomposition geometry:
// the periodic box is divided into a grid of cubes ("patches") whose
// dimensions are slightly larger than the nonbonded cutoff radius, so
// atoms in one cube interact only with the 26 neighboring cubes. It also
// provides the base-patch rule (BaseOf) used to place bonded computes, the
// neighbor-pair enumeration used to create nonbonded pair computes, and
// recursive coordinate bisection for initial patch placement.
package spatial

import (
	"fmt"
	"sort"

	"gonamd/internal/vec"
)

// Grid is the patch grid for a periodic box.
type Grid struct {
	Box  vec.V3
	Dim  [3]int // patches along x, y, z (each ≥ 1)
	Size vec.V3 // patch edge lengths = Box / Dim (each ≥ cutoff)
}

// NewGrid divides box into the largest grid of cubes with every edge at
// least cutoff (the paper's "dimensions slightly larger than the cutoff
// radius"). Directions shorter than the cutoff get a single patch.
func NewGrid(box vec.V3, cutoff float64) (*Grid, error) {
	if cutoff <= 0 {
		return nil, fmt.Errorf("spatial: cutoff %g must be positive", cutoff)
	}
	if box.X <= 0 || box.Y <= 0 || box.Z <= 0 {
		return nil, fmt.Errorf("spatial: invalid box %v", box)
	}
	g := &Grid{Box: box}
	for c := 0; c < 3; c++ {
		n := int(box.Comp(c) / cutoff)
		if n < 1 {
			n = 1
		}
		g.Dim[c] = n
	}
	g.Size = vec.New(box.X/float64(g.Dim[0]), box.Y/float64(g.Dim[1]), box.Z/float64(g.Dim[2]))
	return g, nil
}

// NewGridDims builds a grid with explicitly chosen patch counts per
// axis, validating that every patch edge is at least cutoff. NAMD sizes
// patches as cutoff plus a margin, so benchmark systems pin their exact
// patch grids (e.g. ApoA-I's 7×7×5) this way.
func NewGridDims(box vec.V3, dims [3]int, cutoff float64) (*Grid, error) {
	if cutoff <= 0 {
		return nil, fmt.Errorf("spatial: cutoff %g must be positive", cutoff)
	}
	g := &Grid{Box: box, Dim: dims}
	for c := 0; c < 3; c++ {
		if dims[c] < 1 {
			return nil, fmt.Errorf("spatial: dimension %d is %d", c, dims[c])
		}
		edge := box.Comp(c) / float64(dims[c])
		if edge < cutoff {
			return nil, fmt.Errorf("spatial: patch edge %g along axis %d below cutoff %g", edge, c, cutoff)
		}
	}
	g.Size = vec.New(box.X/float64(dims[0]), box.Y/float64(dims[1]), box.Z/float64(dims[2]))
	return g, nil
}

// NumPatches returns the total number of patches.
func (g *Grid) NumPatches() int { return g.Dim[0] * g.Dim[1] * g.Dim[2] }

// Index flattens patch coordinates to a patch id.
func (g *Grid) Index(ix, iy, iz int) int {
	return (iz*g.Dim[1]+iy)*g.Dim[0] + ix
}

// Coords returns the patch coordinates of patch id.
func (g *Grid) Coords(id int) (ix, iy, iz int) {
	ix = id % g.Dim[0]
	iy = (id / g.Dim[0]) % g.Dim[1]
	iz = id / (g.Dim[0] * g.Dim[1])
	return
}

// PatchOf returns the patch containing position p (wrapped into the box).
func (g *Grid) PatchOf(p vec.V3) int {
	w := vec.Wrap(p, g.Box)
	ix := int(w.X / g.Size.X)
	iy := int(w.Y / g.Size.Y)
	iz := int(w.Z / g.Size.Z)
	// Guard against w.C == Box.C after floating-point wrap.
	if ix >= g.Dim[0] {
		ix = g.Dim[0] - 1
	}
	if iy >= g.Dim[1] {
		iy = g.Dim[1] - 1
	}
	if iz >= g.Dim[2] {
		iz = g.Dim[2] - 1
	}
	return g.Index(ix, iy, iz)
}

// Center returns the center point of patch id.
func (g *Grid) Center(id int) vec.V3 {
	ix, iy, iz := g.Coords(id)
	return vec.New(
		(float64(ix)+0.5)*g.Size.X,
		(float64(iy)+0.5)*g.Size.Y,
		(float64(iz)+0.5)*g.Size.Z,
	)
}

// Neighbors returns the ids of the (up to 26) distinct patches adjacent
// to patch id under periodic boundary conditions, excluding id itself.
// With small grid dimensions several offsets may wrap to the same patch;
// duplicates are removed.
func (g *Grid) Neighbors(id int) []int {
	ix, iy, iz := g.Coords(id)
	seen := map[int]bool{id: true}
	var out []int
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				n := g.Index(mod(ix+dx, g.Dim[0]), mod(iy+dy, g.Dim[1]), mod(iz+dz, g.Dim[2]))
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// NeighborPairs enumerates every unordered pair of adjacent patches
// exactly once. Each pair receives one nonbonded pair-compute object
// (the paper's force decomposition: ~13 pair objects per patch plus one
// self object).
func (g *Grid) NeighborPairs() [][2]int {
	var out [][2]int
	seen := make(map[[2]int]bool)
	n := g.NumPatches()
	for id := 0; id < n; id++ {
		for _, nb := range g.Neighbors(id) {
			a, b := id, nb
			if a > b {
				a, b = b, a
			}
			k := [2]int{a, b}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// BaseOf returns the base patch of a set of mutually-neighboring patches
// under periodic wrap: the patch c such that every member lies at offset
// {0,1}³ from c (the coordinate-wise minimum in the wrapped sense).
// Computes placed on the base patch's processor give every patch at most
// seven proxies: a patch's data is only ever needed on the home
// processors of the (at most 7) patches that have it in their upstream
// set. It panics if the set does not fit in a 2×2×2 neighborhood.
func (g *Grid) BaseOf(ids []int) int {
	if len(ids) == 0 {
		panic("spatial: BaseOf of empty set")
	}
	x0, y0, z0 := g.Coords(ids[0])
	minD := [3]int{}
	maxD := [3]int{}
	for _, id := range ids[1:] {
		x, y, z := g.Coords(id)
		d := [3]int{
			wrapDelta(x0, x, g.Dim[0]),
			wrapDelta(y0, y, g.Dim[1]),
			wrapDelta(z0, z, g.Dim[2]),
		}
		for c := 0; c < 3; c++ {
			if d[c] < minD[c] {
				minD[c] = d[c]
			}
			if d[c] > maxD[c] {
				maxD[c] = d[c]
			}
		}
	}
	for c := 0; c < 3; c++ {
		if maxD[c]-minD[c] > 1 {
			panic(fmt.Sprintf("spatial: BaseOf set spans more than 2 patches on axis %d", c))
		}
	}
	return g.Index(mod(x0+minD[0], g.Dim[0]), mod(y0+minD[1], g.Dim[1]), mod(z0+minD[2], g.Dim[2]))
}

// Bin distributes atoms into patches by position. It returns, for each
// patch, the (sorted) indices of its atoms.
func (g *Grid) Bin(pos []vec.V3) [][]int32 {
	out := make([][]int32, g.NumPatches())
	for i, p := range pos {
		id := g.PatchOf(p)
		out[id] = append(out[id], int32(i))
	}
	return out
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// wrapDelta returns the signed smallest grid offset from a to b modulo n.
func wrapDelta(a, b, n int) int {
	d := mod(b-a, n)
	if d > n/2 {
		d -= n
	}
	return d
}

// RCB assigns each of n items (with positions and non-negative weights)
// to one of npe processors by recursive coordinate bisection: the item
// set is recursively split along its widest axis into weight-balanced
// halves, with the processor range split proportionally. When npe exceeds
// the number of items this degenerates to round-robin, matching the
// paper's initial patch distribution.
func RCB(centers []vec.V3, weights []float64, npe int) []int {
	if npe <= 0 {
		panic("spatial: RCB with no processors")
	}
	n := len(centers)
	out := make([]int, n)
	if n == 0 {
		return out
	}
	if npe >= n {
		// Round-robin: item i on PE i.
		for i := range out {
			out[i] = i % npe
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rcbRec(centers, weights, idx, 0, npe, out)
	return out
}

func rcbRec(centers []vec.V3, weights []float64, idx []int, peLo, peHi int, out []int) {
	if peHi-peLo == 1 || len(idx) <= 1 {
		for _, i := range idx {
			out[i] = peLo
		}
		return
	}
	// Find the widest axis of this group.
	lo := centers[idx[0]]
	hi := lo
	for _, i := range idx[1:] {
		lo = vec.Min(lo, centers[i])
		hi = vec.Max(hi, centers[i])
	}
	span := hi.Sub(lo)
	axis := 0
	if span.Y > span.Comp(axis) {
		axis = 1
	}
	if span.Z > span.Comp(axis) {
		axis = 2
	}
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := centers[idx[a]].Comp(axis), centers[idx[b]].Comp(axis)
		if ca != cb {
			return ca < cb
		}
		return idx[a] < idx[b]
	})
	// Split PEs in half, weights proportionally.
	peMid := (peLo + peHi) / 2
	frac := float64(peMid-peLo) / float64(peHi-peLo)
	total := 0.0
	for _, i := range idx {
		total += weights[i]
	}
	target := total * frac
	acc := 0.0
	cut := 0
	for cut < len(idx)-1 && acc+weights[idx[cut]] <= target {
		acc += weights[idx[cut]]
		cut++
	}
	// Ensure both sides non-empty and each side has at least as many
	// items as processors where possible.
	left := peMid - peLo
	right := peHi - peMid
	if cut < left {
		cut = left
	}
	if len(idx)-cut < right {
		cut = len(idx) - right
	}
	rcbRec(centers, weights, idx[:cut], peLo, peMid, out)
	rcbRec(centers, weights, idx[cut:], peMid, peHi, out)
}
