package spatial

import (
	"math"

	"gonamd/internal/vec"
)

// Binner bins atoms into a grid's patches using storage that is reused
// across calls, so steady-state rebinning performs no heap allocations.
// The reference cell path rebins every step; the per-call [][]int32 of
// Grid.Bin was its dominant recurring allocation source.
type Binner struct {
	grid  *Grid
	ids   []int32   // scratch: patch of each atom
	cnt   []int32   // scratch: per-cell population
	flat  []int32   // backing store for all cells
	cells [][]int32 // per-cell views into flat
}

// NewBinner creates a reusable binner for the grid.
func NewBinner(g *Grid) *Binner {
	np := g.NumPatches()
	return &Binner{grid: g, cnt: make([]int32, np), cells: make([][]int32, np)}
}

// Bin distributes atoms into patches by position. For each patch it
// returns the atom indices in ascending order (matching Grid.Bin). The
// returned slices alias the binner's internal storage and are valid until
// the next Bin call.
func (b *Binner) Bin(pos []vec.V3) [][]int32 {
	if cap(b.ids) < len(pos) {
		b.ids = make([]int32, len(pos))
		b.flat = make([]int32, len(pos))
	}
	ids := b.ids[:len(pos)]
	flat := b.flat[:len(pos)]

	// Counting sort: cell of each atom, per-cell populations, prefix
	// offsets, then stable placement — visiting atoms in index order keeps
	// every cell's list ascending.
	for i := range b.cnt {
		b.cnt[i] = 0
	}
	for i, p := range pos {
		id := int32(b.grid.PatchOf(p))
		ids[i] = id
		b.cnt[id]++
	}
	var start int32
	for c := range b.cells {
		n := b.cnt[c]
		b.cells[c] = flat[start : start : start+n]
		start += n
	}
	for i, id := range ids {
		b.cells[id] = append(b.cells[id], int32(i))
	}
	return b.cells
}

// MaxDisplacement2 returns the largest squared minimum-image displacement
// of any atom from its reference position. It always scans every atom; a
// passing scan therefore measures the true maximum, which ListGuard.Valid
// feeds back into DriftGuard.Seed so subsequent validity checks can be
// skipped again.
func MaxDisplacement2(pos, ref []vec.V3, box vec.V3) float64 {
	var max float64
	for i := range pos {
		if d2 := vec.MinImage(pos[i], ref[i], box).Norm2(); d2 > max {
			max = d2
		}
	}
	return max
}

// DriftGuard maintains a conservative upper bound on how far any atom can
// have moved since a reference snapshot, so the O(N) displacement scan
// can be skipped entirely on steps where the bound proves the Verlet list
// still valid. Integrators feed it the maximum single-step displacement
// after every drift; any code path that moves positions without
// accounting (minimization, constraint projection, external edits) must
// call Invalidate, which forces scans until the next Reset.
type DriftGuard struct {
	Limit float64 // maximum permitted displacement (skin/2)
	bound float64 // accumulated displacement bound; < 0 means unknown
}

// Reset zeroes the bound; call when the reference snapshot is (re)taken.
func (g *DriftGuard) Reset() { g.bound = 0 }

// Invalidate marks the bound unknown, forcing full scans.
func (g *DriftGuard) Invalidate() { g.bound = -1 }

// Seed replaces the bound with a measured maximum displacement (from a
// full scan), re-arming skipping after the accumulated bound overshot.
func (g *DriftGuard) Seed(bound float64) { g.bound = bound }

// Advance adds one step's maximum per-atom displacement to the bound.
func (g *DriftGuard) Advance(maxStep float64) {
	if g.bound >= 0 {
		g.bound += maxStep
	}
}

// CanSkip reports whether the accumulated bound proves that no atom can
// have moved beyond Limit, making a displacement scan unnecessary.
func (g *DriftGuard) CanSkip() bool { return g.bound >= 0 && g.bound <= g.Limit }

// ListGuard is the Verlet-list validity rule, stated once for every
// engine: a list built with skin s covers every within-cutoff pair while
// no atom has moved more than s/2 from the positions the list was built
// at. It owns that reference snapshot and the drift bound over it.
type ListGuard struct {
	DriftGuard
	Builds int // Rebase calls, i.e. list (re)builds

	ref   []vec.V3 // positions at the last Rebase
	built bool
}

// NewListGuard returns the guard of a list with the given skin; it
// reports invalid until the first Rebase.
func NewListGuard(skin float64) ListGuard {
	return ListGuard{DriftGuard: DriftGuard{Limit: skin / 2, bound: -1}}
}

// Valid reports whether the list built at the last Rebase still covers
// every within-cutoff pair at pos. The drift bound answers most calls in
// O(1); when it cannot, one O(N) displacement scan decides and, on
// success, re-seeds the bound with the measured maximum.
func (g *ListGuard) Valid(pos []vec.V3, box vec.V3) bool {
	if !g.built {
		return false
	}
	if g.CanSkip() {
		return true
	}
	d2 := MaxDisplacement2(pos, g.ref, box)
	if d2 > g.Limit*g.Limit {
		return false
	}
	g.Seed(math.Sqrt(d2))
	return true
}

// Rebase records pos as the positions the list was just built at.
func (g *ListGuard) Rebase(pos []vec.V3) {
	g.ref = append(g.ref[:0], pos...)
	g.Reset()
	g.built = true
	g.Builds++
}

// Anchor returns the positions of the last Rebase (owned by the guard),
// or nil before the first.
func (g *ListGuard) Anchor() []vec.V3 {
	if !g.built {
		return nil
	}
	return g.ref
}

// Expire marks the list stale: Valid reports false until the next
// Rebase, whatever the positions.
func (g *ListGuard) Expire() { g.built = false }
