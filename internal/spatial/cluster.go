package spatial

import (
	"fmt"
	"math"
	"math/bits"

	"gonamd/internal/vec"
)

// Cluster pair lists, the GROMACS-style M×N layout: atoms are packed into
// fixed-size clusters and the Verlet list pairs whole clusters instead of
// atoms, so the force kernel amortizes every per-pair lookup (types,
// charges, exclusion tests, cell walks) over M·N distance checks in a
// tight, branch-predictable loop.
//
// Construction packs atoms column by column: the box is divided into x–y
// columns whose cross-section is sized so ~N atoms span a column-edge of
// height, each column's atoms are sorted by z (ties by index, so builds
// are deterministic), and the resulting slot sequence is padded per
// column to a multiple of lcm(M, N). The same slot sequence is then read
// through two aligned views — i-clusters of M consecutive slots and
// j-clusters of N consecutive slots — and an entry (i, j) is listed when
// the two clusters' axis-aligned bounding boxes come within the list
// distance under the periodic minimum image. Within an entry, mask bits
// are set only for atom pairs themselves within the list distance at
// build time — the Verlet criterion of an atom-pair list — so a kernel
// sweep tests the pair-list candidate count, not the tile volume. Every real atom pair within the list distance is covered, and
// covered exactly once: the pair with slots s_i < s_j appears only in
// entry (s_i/M, s_j/N), at mask bit (s_i mod M)·N + (s_j mod N). The
// packed 64-bit interaction mask also encodes Newton's-third-law
// ordering (only s_j > s_i bits are set), padding slots, and exclusions;
// a parallel mask flags modified 1-4 pairs. The skin/2 drift rule
// (ListGuard) decides list reuse.
//
// A list can also carry an inner view, the short half of a dual pair
// list: every entry's mask cut to the pairs within a prune distance
// PruneDist < ListDist at the positions of the last prune, kept in the
// entry's otherwise-padding Inner word, so the view costs no memory. It
// therefore exists for tiles of up to 32 pairs (the engines' 4×8 and
// every smaller one). The builder emits it at build time; the cluster
// kernels re-prune it from the r² of an outer sweep, under a second
// skin/2 guard of skin PruneDist − cutoff.

// ClusterPruneSkin is the inner skin (Å) of the engines' dual cluster
// pair lists: the inner view keeps the pairs within cutoff +
// ClusterPruneSkin, and is re-pruned once an atom has moved half of it.
// The mean one-worker step of an 11k-atom water box is flat over
// 0.3–0.5 Å; 0.5 Å re-prunes least (DESIGN.md, "The dual pair list").
const ClusterPruneSkin = 0.5

// ClusterPairEntry is one packed cluster pair of a ClusterList: the
// j-cluster index plus the interaction masks. Mask bit a·N+b enables the
// pair (i-slot a, j-slot b); Mod flags the subset evaluated with modified
// 1-4 parameters (Mod ⊆ Mask); Inner, in a list with an inner view, is
// Mask cut to the pairs within PruneDist at the last prune (0 when none
// is that close).
type ClusterPairEntry struct {
	J     int32
	Inner uint32
	Mask  uint64
	Mod   uint64
}

// ClusterList is a cluster pair list over one position snapshot,
// immutable but for the entries' Inner words, which prunes rewrite. Slot
// s holds atom Atom[s] (-1 for padding); the i-view groups slots in runs
// of M, the j-view in runs of N, and per-column padding to lcm(M, N)
// keeps both views aligned so a cluster never straddles a column
// boundary.
type ClusterList struct {
	M, N int
	Box  vec.V3

	Atom   []int32 // slot → atom index, -1 for padding
	SlotOf []int32 // atom index → slot

	// Entries of i-cluster ic are Entries[EntryOff[ic]:EntryOff[ic+1]],
	// sorted by ascending J.
	EntryOff []int32
	Entries  []ClusterPairEntry

	// IMin/IMax are the i-cluster bounding boxes over wrapped positions at
	// build time (IMin > IMax marks an empty, all-padding cluster).
	IMin, IMax []vec.V3

	// PruneDist > 0 says the entries' Inner words hold the inner view,
	// cut at this distance.
	PruneDist float64
}

// Slots returns the padded slot count (a multiple of lcm(M, N)).
func (l *ClusterList) Slots() int { return len(l.Atom) }

// NumI returns the number of i-clusters (Slots/M).
func (l *ClusterList) NumI() int { return len(l.Atom) / l.M }

// NumJ returns the number of j-clusters (Slots/N).
func (l *ClusterList) NumJ() int { return len(l.Atom) / l.N }

// CenterI returns the center of i-cluster ic's bounding box (the box
// origin for empty clusters), used to map clusters onto spatial cells for
// task decomposition and load balancing.
func (l *ClusterList) CenterI(ic int) vec.V3 {
	lo, hi := l.IMin[ic], l.IMax[ic]
	if lo.X > hi.X {
		return vec.Zero
	}
	return vec.New((lo.X+hi.X)/2, (lo.Y+hi.Y)/2, (lo.Z+hi.Z)/2)
}

// NumPairs returns the number of enabled (mask-set) slot pairs across all
// entries — the pair count a kernel sweep will test against the cutoff.
func (l *ClusterList) NumPairs() int {
	n := 0
	for i := range l.Entries {
		n += bits.OnesCount64(l.Entries[i].Mask)
	}
	return n
}

// ClusterBuilder constructs ClusterLists with storage reused across
// builds, so steady-state rebuilds stop allocating once capacities reach
// their high-water marks. Build is a pure function of the positions and
// the exclusion enumeration: identical inputs produce an identical list,
// which makes rebuild-vs-cached-replay force evaluation bitwise equal.
type ClusterBuilder struct {
	M, N, L  int // cluster sizes and lcm(M, N)
	Box      vec.V3
	ListDist float64 // cutoff + skin
	// PruneDist, when positive and the tiles hold at most 32 pairs, makes
	// Build emit the list's inner view at this distance (cutoff + inner
	// skin, below ListDist).
	PruneDist float64

	list ClusterList

	// Column grid (recomputed per build from the atom density).
	nx, ny     int
	colW, colH float64

	// Scratch, reused across builds.
	colOf      []int32 // atom → column
	colCnt     []int32 // per-column atom count
	colLo      []int32 // per-column slot range start (padded prefix)
	colHi      []int32 // per-column slot range end
	order      []int32 // atoms grouped by column, z-sorted in place
	icCol      []int32 // i-cluster → column
	realI      []uint64
	realJ      []uint64
	jMin       []vec.V3
	jMax       []vec.V3
	cand       []int32   // candidate column scratch, sorted ascending
	sx, sy, sz []float64 // slot → wrapped coordinate (padding slots undefined)
}

// NewClusterBuilder validates the cluster geometry and prepares a
// builder. M and N must be in [1, 8] with M·N ≤ 64 so an interaction mask
// fits one 64-bit word; listDist is cutoff + skin.
func NewClusterBuilder(box vec.V3, m, n int, listDist float64) (*ClusterBuilder, error) {
	if m < 1 || m > 8 || n < 1 || n > 8 {
		return nil, fmt.Errorf("spatial: cluster sizes %dx%d out of range (1..8)", m, n)
	}
	if m*n > 64 {
		return nil, fmt.Errorf("spatial: cluster mask %dx%d exceeds 64 bits", m, n)
	}
	if listDist <= 0 {
		return nil, fmt.Errorf("spatial: cluster list distance %g must be positive", listDist)
	}
	if box.X <= 0 || box.Y <= 0 || box.Z <= 0 {
		return nil, fmt.Errorf("spatial: invalid box %v", box)
	}
	return &ClusterBuilder{M: m, N: n, L: lcm(m, n), Box: box, ListDist: listDist,
		list: ClusterList{M: m, N: n, Box: box}}, nil
}

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// Build packs the atoms into clusters and lists every cluster pair whose
// bounding boxes come within the list distance. excl, when non-nil,
// enumerates excluded and modified (1-4) atom pairs
// (topology.System.ForEachExcludedPair has the right shape): excluded
// pairs are cleared from the interaction masks, modified pairs flagged in
// the Mod masks. The returned list aliases builder storage and is valid
// until the next Build.
func (b *ClusterBuilder) Build(pos []vec.V3, excl func(fn func(i, j int32, modified bool))) *ClusterList {
	b.packColumns(pos)
	b.buildAABBs(pos)
	b.list.PruneDist = b.innerDist()
	b.buildEntries()
	if excl != nil {
		b.applyExclusions(excl)
	}
	return &b.list
}

// innerDist is the distance the built list's inner view is cut at, 0
// for none: tiles of more than 32 pairs do not fit the Inner word.
func (b *ClusterBuilder) innerDist() float64 {
	if b.M*b.N > 32 || b.PruneDist <= 0 {
		return 0
	}
	return b.PruneDist
}

// packColumns assigns atoms to x–y columns, z-sorts each column, and lays
// out the padded slot sequence.
func (b *ClusterBuilder) packColumns(pos []vec.V3) {
	natoms := len(pos)
	// Column cross-section sized so a cluster of max(M, N) atoms spans
	// roughly a column edge in z at the current density: edge ≈
	// (target/ρ)^(1/3). Degenerate inputs fall back to one column.
	target := b.N
	if b.M > target {
		target = b.M
	}
	vol := b.Box.X * b.Box.Y * b.Box.Z
	edge := b.Box.X + b.Box.Y // larger than any box edge → single column
	if natoms > 0 {
		edge = math.Cbrt(float64(target) * vol / float64(natoms))
	}
	b.nx = int(b.Box.X / edge)
	b.ny = int(b.Box.Y / edge)
	if b.nx < 1 {
		b.nx = 1
	}
	if b.ny < 1 {
		b.ny = 1
	}
	b.colW = b.Box.X / float64(b.nx)
	b.colH = b.Box.Y / float64(b.ny)
	ncol := b.nx * b.ny

	b.colOf = resizeI32(b.colOf, natoms)
	b.colCnt = resizeI32(b.colCnt, ncol)
	b.colLo = resizeI32(b.colLo, ncol)
	b.colHi = resizeI32(b.colHi, ncol)
	for c := range b.colCnt {
		b.colCnt[c] = 0
	}
	for i := 0; i < natoms; i++ {
		w := vec.Wrap(pos[i], b.Box)
		cx := int(w.X / b.colW)
		cy := int(w.Y / b.colH)
		if cx >= b.nx {
			cx = b.nx - 1
		}
		if cy >= b.ny {
			cy = b.ny - 1
		}
		c := int32(cy*b.nx + cx)
		b.colOf[i] = c
		b.colCnt[c]++
	}

	// Padded prefix: each column's slot range is its atom count rounded up
	// to a multiple of lcm(M, N), so clusters never straddle columns.
	slots := 0
	for c := 0; c < ncol; c++ {
		b.colLo[c] = int32(slots)
		padded := (int(b.colCnt[c]) + b.L - 1) / b.L * b.L
		slots += padded
		b.colHi[c] = int32(slots)
	}

	// Group atoms by column (ascending index within each column), then
	// z-sort each column's segment of order in place. order is indexed by
	// slot position, so it spans the padded layout.
	// Reuse colCnt as the per-column write cursor (it is rebuilt next
	// build); the real atom count of column c survives as cnt[c]-colLo[c].
	b.order = resizeI32(b.order, slots)
	cnt := b.colCnt
	for c := 0; c < ncol; c++ {
		cnt[c] = b.colLo[c]
	}
	for i := 0; i < natoms; i++ {
		c := b.colOf[i]
		b.order[cnt[c]] = int32(i)
		cnt[c]++
	}
	for c := 0; c < ncol; c++ {
		lo := int(b.colLo[c])
		hi := int(cnt[c]) // lo + real atom count
		zInsertionSort(b.order[lo:hi], pos)
	}

	// Slot sequence with per-column tail padding.
	l := &b.list
	l.Atom = resizeI32(l.Atom, slots)
	l.SlotOf = resizeI32(l.SlotOf, natoms)
	for c := 0; c < ncol; c++ {
		lo, real, hi := int(b.colLo[c]), int(cnt[c]), int(b.colHi[c])
		for s := lo; s < real; s++ {
			a := b.order[s]
			l.Atom[s] = a
			l.SlotOf[a] = int32(s)
		}
		for s := real; s < hi; s++ {
			l.Atom[s] = -1
		}
	}
}

// zInsertionSort orders atom indices by (z, index). Insertion sort keeps
// rebuilds allocation-free; column segments are small (~N·columnHeight/
// clusterEdge atoms), so the quadratic worst case never dominates.
func zInsertionSort(seg []int32, pos []vec.V3) {
	for i := 1; i < len(seg); i++ {
		a := seg[i]
		za := pos[a].Z
		j := i - 1
		for j >= 0 {
			c := seg[j]
			if pos[c].Z < za || (pos[c].Z == za && c < a) {
				break
			}
			seg[j+1] = c
			j--
		}
		seg[j+1] = a
	}
}

// buildAABBs computes per-cluster bounding boxes over wrapped positions
// and the real-slot bit masks for both views.
func (b *ClusterBuilder) buildAABBs(pos []vec.V3) {
	l := &b.list
	slots := len(l.Atom)
	numI, numJ := slots/b.M, slots/b.N
	l.IMin = resizeV3(l.IMin, numI)
	l.IMax = resizeV3(l.IMax, numI)
	b.jMin = resizeV3(b.jMin, numJ)
	b.jMax = resizeV3(b.jMax, numJ)
	b.realI = resizeU64(b.realI, numI)
	b.realJ = resizeU64(b.realJ, numJ)
	b.icCol = resizeI32(b.icCol, numI)

	// Per-slot wrapped coordinates, kept for entryMask's per-pair
	// distance filter. The i-view pass below visits every slot.
	b.sx = resizeF64(b.sx, slots)
	b.sy = resizeF64(b.sy, slots)
	b.sz = resizeF64(b.sz, slots)

	aabb := func(base, size int) (vec.V3, vec.V3, uint64) {
		lo := vec.New(math.Inf(1), math.Inf(1), math.Inf(1))
		hi := vec.New(math.Inf(-1), math.Inf(-1), math.Inf(-1))
		var real uint64
		for k := 0; k < size; k++ {
			a := l.Atom[base+k]
			if a < 0 {
				continue
			}
			real |= 1 << uint(k)
			w := vec.Wrap(pos[a], b.Box)
			b.sx[base+k], b.sy[base+k], b.sz[base+k] = w.X, w.Y, w.Z
			if w.X < lo.X {
				lo.X = w.X
			}
			if w.Y < lo.Y {
				lo.Y = w.Y
			}
			if w.Z < lo.Z {
				lo.Z = w.Z
			}
			if w.X > hi.X {
				hi.X = w.X
			}
			if w.Y > hi.Y {
				hi.Y = w.Y
			}
			if w.Z > hi.Z {
				hi.Z = w.Z
			}
		}
		if real == 0 {
			lo, hi = vec.New(1, 1, 1), vec.New(0, 0, 0) // inverted: empty
		}
		return lo, hi, real
	}
	for ic := 0; ic < numI; ic++ {
		l.IMin[ic], l.IMax[ic], b.realI[ic] = aabb(ic*b.M, b.M)
	}
	if b.N == b.M {
		copy(b.jMin, l.IMin)
		copy(b.jMax, l.IMax)
		copy(b.realJ, b.realI)
	} else {
		for jc := 0; jc < numJ; jc++ {
			b.jMin[jc], b.jMax[jc], b.realJ[jc] = aabb(jc*b.N, b.N)
		}
	}
	// Column of each i-cluster (columns are L-aligned, so a cluster lies
	// in exactly one).
	col := 0
	for ic := 0; ic < numI; ic++ {
		base := int32(ic * b.M)
		for b.colHi[col] <= base {
			col++
		}
		b.icCol[ic] = int32(col)
	}
}

// wrapGap returns the minimum distance between intervals [alo,ahi] and
// [blo,bhi] on a circle of circumference period (both within [0,
// period)). Zero when they overlap.
func wrapGap(alo, ahi, blo, bhi, period float64) float64 {
	var direct, around float64
	switch {
	case blo > ahi:
		direct = blo - ahi
		around = period - bhi + alo
	case alo > bhi:
		direct = alo - bhi
		around = period - ahi + blo
	default:
		return 0
	}
	g := direct
	if around < g {
		g = around
	}
	if g < 0 {
		g = 0
	}
	return g
}

// buildEntries lists, for every i-cluster, the j-clusters whose bounding
// boxes come within ListDist, visiting candidate columns in ascending
// index so each entry run is sorted by J (entries within a column are
// emitted in ascending cluster order, and slot prefixes grow with column
// index).
func (b *ClusterBuilder) buildEntries() {
	l := &b.list
	numI := len(l.Atom) / b.M
	l.EntryOff = resizeI32(l.EntryOff, numI+1)
	l.Entries = l.Entries[:0]
	dist2 := b.ListDist * b.ListDist

	rx := int(b.ListDist/b.colW) + 1
	ry := int(b.ListDist/b.colH) + 1

	prevCol := int32(-1)
	for ic := 0; ic < numI; ic++ {
		l.EntryOff[ic] = int32(len(l.Entries))
		if b.realI[ic] == 0 {
			continue
		}
		if c := b.icCol[ic]; c != prevCol {
			b.collectCandidates(int(c), rx, ry)
			prevCol = c
		}
		iMin, iMax := l.IMin[ic], l.IMax[ic]
		icBase := ic * b.M

		for _, c := range b.cand {
			// Column-level x/y prune with the column rectangle (a superset
			// of every j-cluster AABB inside it).
			cx, cy := int(c)%b.nx, int(c)/b.nx
			gx := wrapGap(iMin.X, iMax.X, float64(cx)*b.colW, float64(cx+1)*b.colW, b.Box.X)
			gy := wrapGap(iMin.Y, iMax.Y, float64(cy)*b.colH, float64(cy+1)*b.colH, b.Box.Y)
			colXY := gx*gx + gy*gy
			if colXY > dist2 {
				continue
			}
			jcLo := int(b.colLo[c]) / b.N
			jcHi := int(b.colHi[c]) / b.N
			for jc := jcLo; jc < jcHi; jc++ {
				jcBase := jc * b.N
				// Newton's 3rd law: only entries that can hold an ordered
				// pair (some j-slot after some i-slot).
				if jcBase+b.N-1 <= icBase {
					continue
				}
				if b.realJ[jc] == 0 {
					continue
				}
				jMin, jMax := b.jMin[jc], b.jMax[jc]
				gz := wrapGap(iMin.Z, iMax.Z, jMin.Z, jMax.Z, b.Box.Z)
				if colXY+gz*gz > dist2 {
					continue
				}
				jgx := wrapGap(iMin.X, iMax.X, jMin.X, jMax.X, b.Box.X)
				jgy := wrapGap(iMin.Y, iMax.Y, jMin.Y, jMax.Y, b.Box.Y)
				if jgx*jgx+jgy*jgy+gz*gz > dist2 {
					continue
				}
				mask, near := b.entryMask(icBase, jcBase, ic, jc)
				if mask == 0 {
					continue
				}
				l.Entries = append(l.Entries, ClusterPairEntry{J: int32(jc), Inner: uint32(near), Mask: mask})
			}
		}
	}
	l.EntryOff[numI] = int32(len(l.Entries))
}

// entryMask computes the interaction mask of one entry: ordering
// (Newton's 3rd law), padding, and the per-pair distance filter; and,
// from the same r², the subset within the inner view's distance (strict
// like the kernels' prune: r² == PruneDist² is dropped). Only
// pairs within ListDist at build time get a bit — exactly the Verlet
// criterion of an atom-pair list — so the kernels' candidate count
// matches such a list's instead of growing with the tile volume. The
// displacement arithmetic (wrapped coordinates, branchy minimum image)
// is the same the kernels use, so the filter keeps precisely the pairs a
// kernel sweep at the build positions would find within ListDist.
//
// The distance test runs fixed-trip over the whole M×N tile and never
// branches on its outcome: a slot pair's bit is the inverted sign of
// ListDist² − r² (r² == ListDist² gives +0, so the pair stays listed).
// Which slot pairs may interact at all — real i-slot, real j-slot, and
// s_j > s_i where the two views overlap — is integer work ANDed on per
// row; padding slots hold stale but finite coordinates, so testing them
// is harmless.
func (b *ClusterBuilder) entryMask(icBase, jcBase, ic, jc int) (mask, inner uint64) {
	M, N := b.M, b.N
	rj := b.realJ[jc]
	ri := b.realI[ic]
	dist2 := b.ListDist * b.ListDist
	prune2 := b.list.PruneDist * b.list.PruneDist // 0 without an inner view: no bit
	bx, by, bz := b.Box.X, b.Box.Y, b.Box.Z
	hx, hy, hz := bx/2, by/2, bz/2

	// Stage the j-cluster coordinates once per entry into fixed arrays
	// (every later index is masked with &7, so the pair loop runs with no
	// bounds checks).
	var xj, yj, zj [8]float64
	copy(xj[:], b.sx[jcBase:jcBase+N])
	copy(yj[:], b.sy[jcBase:jcBase+N])
	copy(zj[:], b.sz[jcBase:jcBase+N])

	for a := 0; a < M; a++ {
		is := icBase + a
		xa, ya, za := b.sx[is], b.sy[is], b.sz[is]
		var near, in uint64
		for bb := 0; bb < N; bb++ {
			dx := xa - xj[bb&7]
			if dx > hx {
				dx -= bx
			} else if dx < -hx {
				dx += bx
			}
			dy := ya - yj[bb&7]
			if dy > hy {
				dy -= by
			} else if dy < -hy {
				dy += by
			}
			dz := za - zj[bb&7]
			if dz > hz {
				dz -= bz
			} else if dz < -hz {
				dz += bz
			}
			x := dx*dx + dy*dy + dz*dz
			near |= ^math.Float64bits(dist2-x) >> 63 << uint(bb)
			in |= math.Float64bits(x-prune2) >> 63 << uint(bb)
		}
		valid := rj & -(ri >> uint(a) & 1) // every real j-slot if i-slot a is real
		if lim := is - jcBase; lim >= 0 {
			// Overlapping views: keep only the j-slots after i-slot a.
			valid &^= 2<<uint(lim) - 1
		}
		mask |= (near & valid) << uint(a*N)
		inner |= (in & valid) << uint(a*N)
	}
	return mask, inner
}

// collectCandidates gathers the distinct columns within the search window
// of column c, sorted ascending (so entries emit in ascending J).
func (b *ClusterBuilder) collectCandidates(c, rx, ry int) {
	cx, cy := c%b.nx, c/b.nx
	b.cand = b.cand[:0]
	pushRange := func(cyy int) {
		rowBase := cyy * b.nx
		if 2*rx+1 >= b.nx {
			for x := 0; x < b.nx; x++ {
				b.cand = append(b.cand, int32(rowBase+x))
			}
			return
		}
		for dx := -rx; dx <= rx; dx++ {
			x := cx + dx
			if x < 0 {
				x += b.nx
			} else if x >= b.nx {
				x -= b.nx
			}
			b.cand = append(b.cand, int32(rowBase+x))
		}
	}
	if 2*ry+1 >= b.ny {
		for y := 0; y < b.ny; y++ {
			pushRange(y)
		}
	} else {
		for dy := -ry; dy <= ry; dy++ {
			y := cy + dy
			if y < 0 {
				y += b.ny
			} else if y >= b.ny {
				y -= b.ny
			}
			pushRange(y)
		}
	}
	// Insertion sort (allocation-free; ≤ a few hundred candidates).
	for i := 1; i < len(b.cand); i++ {
		v := b.cand[i]
		j := i - 1
		for j >= 0 && b.cand[j] > v {
			b.cand[j+1] = b.cand[j]
			j--
		}
		b.cand[j+1] = v
	}
}

// applyExclusions clears excluded pairs from the interaction masks (the
// inner view's too) and flags modified 1-4 pairs. Entries are sorted by J per i-cluster, so
// each pair locates its entry with one binary search.
func (b *ClusterBuilder) applyExclusions(excl func(fn func(i, j int32, modified bool))) {
	l := &b.list
	m32, n32 := int32(b.M), int32(b.N)
	excl(func(i, j int32, modified bool) {
		si, sj := l.SlotOf[i], l.SlotOf[j]
		if si > sj {
			si, sj = sj, si
		}
		ic, jc := si/m32, sj/n32
		lo, hi := int(l.EntryOff[ic]), int(l.EntryOff[ic+1])
		for lo < hi {
			mid := (lo + hi) / 2
			if l.Entries[mid].J < jc {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == int(l.EntryOff[ic+1]) || l.Entries[lo].J != jc {
			return // beyond the list distance: never evaluated
		}
		bit := uint64(1) << uint((si%m32)*n32+sj%n32)
		e := &l.Entries[lo]
		if e.Mask&bit == 0 {
			return
		}
		if modified {
			e.Mod |= bit
		} else {
			e.Mask &^= bit
			e.Inner &^= uint32(bit)
		}
	})
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/8+8)
	}
	return s[:n]
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, n+n/8+8)
	}
	return s[:n]
}

func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n, n+n/8+8)
	}
	return s[:n]
}

func resizeV3(s []vec.V3, n int) []vec.V3 {
	if cap(s) < n {
		return make([]vec.V3, n, n+n/8+8)
	}
	return s[:n]
}
