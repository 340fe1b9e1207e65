package spatial

import (
	"testing"
	"testing/quick"

	"gonamd/internal/vec"
	"gonamd/internal/xrand"
)

func TestNewGridApoA1Shape(t *testing.T) {
	// The paper's ApoA-I system: 12 Å cutoff, 7×7×5 = 245 patches.
	g, err := NewGrid(vec.New(108.86, 108.86, 77.76), 12.0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dim != [3]int{9, 9, 6} {
		// 108.86/12 = 9.07 → 9. The paper's 7×7×5 grid uses patch size
		// slightly larger than cutoff with margin; see molgen for the
		// boxes we use. This test just pins the floor rule.
		t.Errorf("Dim = %v, want [9 9 6] for this box", g.Dim)
	}
	for c := 0; c < 3; c++ {
		if g.Size.Comp(c) < 12.0 {
			t.Errorf("patch size %v below cutoff", g.Size)
		}
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g, err := NewGrid(vec.New(84, 84, 60), 12.0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPatches() != 7*7*5 {
		t.Fatalf("NumPatches = %d, want 245", g.NumPatches())
	}
	for id := 0; id < g.NumPatches(); id++ {
		x, y, z := g.Coords(id)
		if g.Index(x, y, z) != id {
			t.Fatalf("round trip failed for %d -> (%d,%d,%d)", id, x, y, z)
		}
	}
}

func TestPatchOf(t *testing.T) {
	g, _ := NewGrid(vec.New(84, 84, 60), 12.0)
	if got := g.PatchOf(vec.New(0.1, 0.1, 0.1)); got != 0 {
		t.Errorf("PatchOf origin = %d, want 0", got)
	}
	// Wrapped position.
	if got := g.PatchOf(vec.New(-0.1, 0.1, 0.1)); got != g.Index(6, 0, 0) {
		t.Errorf("PatchOf wrapped = %d, want %d", got, g.Index(6, 0, 0))
	}
	// Point exactly at box edge must not index out of range.
	if got := g.PatchOf(vec.New(84, 84, 60)); got != 0 {
		t.Errorf("PatchOf box corner = %d, want 0 (wraps)", got)
	}
	// Every patch center maps back to its own patch.
	for id := 0; id < g.NumPatches(); id++ {
		if got := g.PatchOf(g.Center(id)); got != id {
			t.Fatalf("center of patch %d binned to %d", id, got)
		}
	}
}

func TestNeighbors26(t *testing.T) {
	g, _ := NewGrid(vec.New(84, 84, 60), 12.0) // 7×7×5: all dims > 2
	for _, id := range []int{0, 100, g.NumPatches() - 1} {
		nb := g.Neighbors(id)
		if len(nb) != 26 {
			t.Errorf("patch %d has %d neighbors, want 26", id, len(nb))
		}
		for _, n := range nb {
			if n == id {
				t.Errorf("patch %d lists itself as neighbor", id)
			}
		}
	}
}

func TestNeighborsSmallGridDedup(t *testing.T) {
	// 2×2×2 grid: all 7 other patches are neighbors (each offset wraps).
	g, _ := NewGrid(vec.New(25, 25, 25), 12.0)
	if g.NumPatches() != 8 {
		t.Fatalf("NumPatches = %d, want 8", g.NumPatches())
	}
	nb := g.Neighbors(0)
	if len(nb) != 7 {
		t.Errorf("2×2×2 neighbors = %d, want 7 (deduplicated)", len(nb))
	}
	// 1×1×1 grid: no neighbors at all.
	g1, _ := NewGrid(vec.New(10, 10, 10), 12.0)
	if g1.NumPatches() != 1 {
		t.Fatalf("NumPatches = %d, want 1", g1.NumPatches())
	}
	if nb := g1.Neighbors(0); len(nb) != 0 {
		t.Errorf("single patch has %d neighbors, want 0", len(nb))
	}
}

func TestNeighborPairsCount(t *testing.T) {
	// For a periodic grid with all dims ≥ 3, each patch pairs with 26
	// neighbors; each pair counted once → 13 × npatches pairs. Combined
	// with one self compute per patch this gives the paper's "14 times
	// the number of cubes" compute objects.
	g, _ := NewGrid(vec.New(84, 84, 60), 12.0)
	pairs := g.NeighborPairs()
	want := 13 * g.NumPatches()
	if len(pairs) != want {
		t.Errorf("NeighborPairs = %d, want %d", len(pairs), want)
	}
	seen := make(map[[2]int]bool)
	for _, pr := range pairs {
		if pr[0] >= pr[1] {
			t.Fatalf("pair %v not ordered", pr)
		}
		if seen[pr] {
			t.Fatalf("pair %v duplicated", pr)
		}
		seen[pr] = true
	}
}

func TestBinCoversAllAtoms(t *testing.T) {
	g, _ := NewGrid(vec.New(84, 84, 60), 12.0)
	rng := xrand.New(8)
	pos := make([]vec.V3, 5000)
	for i := range pos {
		pos[i] = vec.New(rng.Range(-50, 150), rng.Range(-50, 150), rng.Range(-50, 150))
	}
	bins := g.Bin(pos)
	total := 0
	for id, b := range bins {
		total += len(b)
		for _, ai := range b {
			if g.PatchOf(pos[ai]) != id {
				t.Fatalf("atom %d binned to %d but PatchOf says %d", ai, id, g.PatchOf(pos[ai]))
			}
		}
	}
	if total != len(pos) {
		t.Errorf("binned %d of %d atoms", total, len(pos))
	}
}

func TestRCBRoundRobinWhenMorePEs(t *testing.T) {
	centers := []vec.V3{{X: 1}, {X: 2}, {X: 3}}
	weights := []float64{1, 1, 1}
	got := RCB(centers, weights, 8)
	for i, pe := range got {
		if pe != i {
			t.Errorf("RCB round-robin: item %d on PE %d, want %d", i, pe, i)
		}
	}
}

func TestRCBBalance(t *testing.T) {
	// A uniform 10×10×1 grid of unit-weight items on 4 PEs should give
	// each PE 25 items.
	var centers []vec.V3
	var weights []float64
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			centers = append(centers, vec.New(float64(x), float64(y), 0))
			weights = append(weights, 1)
		}
	}
	got := RCB(centers, weights, 4)
	count := map[int]int{}
	for _, pe := range got {
		count[pe]++
	}
	if len(count) != 4 {
		t.Fatalf("RCB used %d PEs, want 4", len(count))
	}
	for pe, c := range count {
		if c != 25 {
			t.Errorf("PE %d got %d items, want 25", pe, c)
		}
	}
}

func TestRCBLocality(t *testing.T) {
	// Items assigned to the same PE should be spatially contiguous:
	// with 2 PEs and a line of items, the split must be by position.
	var centers []vec.V3
	var weights []float64
	for x := 0; x < 10; x++ {
		centers = append(centers, vec.New(float64(x), 0, 0))
		weights = append(weights, 1)
	}
	got := RCB(centers, weights, 2)
	for i := 0; i < 5; i++ {
		if got[i] != got[0] {
			t.Errorf("left half split: item %d on PE %d", i, got[i])
		}
	}
	for i := 5; i < 10; i++ {
		if got[i] != got[5] {
			t.Errorf("right half split: item %d on PE %d", i, got[i])
		}
	}
	if got[0] == got[5] {
		t.Error("RCB assigned everything to one PE")
	}
}

func TestRCBWeighted(t *testing.T) {
	// One very heavy item and nine light ones on 2 PEs: the heavy item
	// should end up roughly alone.
	centers := make([]vec.V3, 10)
	weights := make([]float64, 10)
	for i := range centers {
		centers[i] = vec.New(float64(i), 0, 0)
		weights[i] = 1
	}
	weights[0] = 100
	got := RCB(centers, weights, 2)
	heavyPE := got[0]
	heavyCount := 0
	for _, pe := range got {
		if pe == heavyPE {
			heavyCount++
		}
	}
	if heavyCount > 3 {
		t.Errorf("heavy item shares its PE with %d items", heavyCount-1)
	}
}

// Property: RCB always uses valid PE ids and, when there are at least as
// many items as PEs, leaves no PE empty.
func TestRCBProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 4 + rng.Intn(60)
		npe := 1 + rng.Intn(16)
		centers := make([]vec.V3, n)
		weights := make([]float64, n)
		for i := range centers {
			centers[i] = vec.New(rng.Range(0, 100), rng.Range(0, 100), rng.Range(0, 100))
			weights[i] = rng.Range(0.1, 10)
		}
		got := RCB(centers, weights, npe)
		used := map[int]bool{}
		for _, pe := range got {
			if pe < 0 || pe >= npe {
				return false
			}
			used[pe] = true
		}
		if n >= npe && len(used) != npe {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(vec.New(10, 10, 10), 0); err == nil {
		t.Error("zero cutoff accepted")
	}
	if _, err := NewGrid(vec.New(-1, 10, 10), 12); err == nil {
		t.Error("negative box accepted")
	}
}

// TestListGuard walks the skin/2 validity rule through its cases: no
// list yet, the drift bound answering alone, the bound overshooting and
// a scan re-seeding it, a real displacement past the limit, an external
// edit, and a dropped list.
func TestListGuard(t *testing.T) {
	box := vec.New(20, 20, 20)
	pos := []vec.V3{vec.New(1, 1, 1), vec.New(19.9, 5, 5)}
	g := NewListGuard(1.5)
	if g.Valid(pos, box) {
		t.Fatal("valid before any list was built")
	}
	g.Rebase(pos)
	if !g.Valid(pos, box) || g.Builds != 1 {
		t.Fatalf("fresh list invalid (builds %d)", g.Builds)
	}

	// Tracked drift inside the limit: the bound answers without a scan —
	// shown by an untracked edit it cannot see.
	g.Advance(0.5)
	moved := []vec.V3{pos[0].Add(vec.New(5, 0, 0)), pos[1]}
	if !g.Valid(moved, box) {
		t.Error("bound within the limit did not skip the scan")
	}
	// Bound past the limit: the scan decides. A small true displacement
	// (across the periodic boundary) keeps the list and re-seeds the bound.
	g.Advance(0.5)
	near := []vec.V3{pos[0], vec.New(0.2, 5, 5)}
	if !g.Valid(near, box) || !g.CanSkip() {
		t.Error("scan of a 0.3 Å displacement should keep the list and re-arm the bound")
	}
	if !g.Valid(moved, box) { // the re-seeded bound (0.3) is inside the limit
		t.Error("re-seeded bound did not skip")
	}
	// An external edit voids the bound; the scan then sees the 5 Å move.
	g.Invalidate()
	if g.Valid(moved, box) {
		t.Error("displacement past skin/2 reported valid")
	}
	g.Rebase(moved)
	if !g.Valid(moved, box) || g.Builds != 2 {
		t.Error("rebased list invalid")
	}
	g.Drop()
	if g.Valid(moved, box) {
		t.Error("dropped list reported valid")
	}
}

func TestBaseOfWrap(t *testing.T) {
	g, _ := NewGrid(vec.New(84, 84, 60), 12.0) // 7×7×5
	// Pair wrapping in x: patches (6,0,0) and (0,0,0) are face neighbors
	// through the boundary; base must be (6,0,0) (the one whose +1 offset
	// reaches the other).
	a, b := g.Index(6, 0, 0), g.Index(0, 0, 0)
	if base := g.BaseOf([]int{a, b}); base != a {
		t.Errorf("wrapped pair base = %d, want %d", base, a)
	}
	// Mixed-sign offset pair: (2,3,1) and (3,2,1) → base (2,2,1).
	p, q := g.Index(2, 3, 1), g.Index(3, 2, 1)
	if base := g.BaseOf([]int{p, q}); base != g.Index(2, 2, 1) {
		t.Errorf("mixed pair base = %d, want %d", base, g.Index(2, 2, 1))
	}
	// Self.
	if base := g.BaseOf([]int{p}); base != p {
		t.Errorf("single base = %d, want %d", base, p)
	}
}
