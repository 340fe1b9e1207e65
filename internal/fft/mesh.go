package fft

import "fmt"

// xChunk is the column-block width of the x-axis pass: K0 rows of xChunk
// complex elements (256 KiB at K0 = 64) stay cache-resident through all
// log₂K0 butterfly stages.
const xChunk = 256

// grid is a K0×K1×nz complex array stored as flat Re/Im slices in
// row-major order (x slowest, z fastest: index (x·K1 + y)·nz + z),
// together with the y- and x-axis passes both mesh types share. Each
// pass is a set of row sweeps (Plan.sweepRows) over contiguous memory:
//
//   - y: within one x-plane the K1 rows of nz elements are the rows of
//     the sweep. The k0·nz (x, z) pencils are split evenly over the
//     workers, so a worker owns whole planes plus at most two partial
//     z-ranges of a plane.
//   - x: the K0 planes are the rows, K1·nz columns wide. The columns are
//     split evenly over the workers, and each worker walks its range in
//     blocks of chunk columns.
//
// Every element receives the arithmetic of its own 1D pencil transform
// whatever block it falls in, so a pass is bitwise independent of the
// worker count and of chunk.
type grid struct {
	Re []float64
	Im []float64

	k0, k1, nz   int
	planX, planY *Plan
	chunk        int

	// Arguments of the pass in flight, read by the region functions.
	// These are bound once at construction: a fresh closure per Pool.Run
	// would cost a heap allocation per pass.
	workers int
	inverse bool
	yRegion func(w int)
	xRegion func(w int)
}

// init allocates a zeroed K0×K1×nz grid, K0 and K1 being the lengths of
// the x and y plans.
func (g *grid) init(planX, planY *Plan, nz int) {
	g.planX, g.planY = planX, planY
	g.k0, g.k1, g.nz = planX.n, planY.n, nz
	g.chunk = xChunk
	g.Re = make([]float64, g.k0*g.k1*nz)
	g.Im = make([]float64, g.k0*g.k1*nz)
	g.yRegion = g.sweepYRegion
	g.xRegion = g.sweepXRegion
}

// meshPlans builds the per-axis plans of a mesh; every dimension must be
// a power of two ≥ 2.
func meshPlans(k [3]int) (plans [3]*Plan, err error) {
	for d := range k {
		if k[d] < 2 {
			return plans, fmt.Errorf("fft: mesh dimension %d is %d, need ≥ 2", d, k[d])
		}
		if plans[d], err = NewPlan(k[d]); err != nil {
			return plans, err
		}
	}
	return plans, nil
}

// run records the arguments of one pass and runs its region function on
// the pool.
func (g *grid) run(pool Pool, inverse bool, region func(w int)) {
	g.workers, g.inverse = pool.Workers(), inverse
	pool.Run(region)
}

func (g *grid) sweepYRegion(w int) {
	lo, hi := span(g.k0*g.nz, g.workers, w)
	for lo < hi {
		x, z := lo/g.nz, lo%g.nz
		width := min(g.nz-z, hi-lo)
		base := x*g.k1*g.nz + z
		g.planY.sweepRows(g.Re[base:], g.Im[base:], g.nz, width, g.inverse)
		lo += width
	}
}

func (g *grid) sweepXRegion(w int) {
	lo, hi := span(g.k1*g.nz, g.workers, w)
	for c := lo; c < hi; c += g.chunk {
		g.planX.sweepRows(g.Re[c:], g.Im[c:], g.k1*g.nz, min(g.chunk, hi-c), g.inverse)
	}
}

// Mesh3 is a dense K0×K1×K2 complex mesh stored as flat Re/Im arrays in
// row-major order (index (x·K1 + y)·K2 + z). The 3D transform runs as a
// z pass over contiguous pencils, then the y and x row sweeps, each
// parallelizable through a Pool. The PME solver uses RealMesh3; Mesh3
// is the general complex transform and the oracle RealMesh3 is tested
// against.
type Mesh3 struct {
	K [3]int
	grid

	planZ   *Plan
	zRegion func(w int)
}

// NewMesh3 allocates a zeroed mesh; every dimension must be a power of
// two ≥ 2.
func NewMesh3(k [3]int) (*Mesh3, error) {
	plans, err := meshPlans(k)
	if err != nil {
		return nil, err
	}
	m := &Mesh3{K: k, planZ: plans[2]}
	m.grid.init(plans[0], plans[1], k[2])
	m.zRegion = m.sweepZRegion
	return m, nil
}

// Idx returns the flat index of mesh point (x, y, z).
func (m *Mesh3) Idx(x, y, z int) int { return (x*m.K[1]+y)*m.K[2] + z }

// Forward computes the in-place 3D forward DFT along z, y, then x. The
// result is bitwise identical for any pool worker count.
func (m *Mesh3) Forward(pool Pool) { m.transform(pool, false) }

// Inverse computes the unnormalized in-place 3D inverse DFT (Forward
// followed by Inverse scales the mesh by K0·K1·K2).
func (m *Mesh3) Inverse(pool Pool) { m.transform(pool, true) }

func (m *Mesh3) transform(pool Pool, inverse bool) {
	m.run(pool, inverse, m.zRegion)
	m.run(pool, inverse, m.yRegion)
	m.run(pool, inverse, m.xRegion)
}

func (m *Mesh3) sweepZRegion(w int) {
	k2 := m.K[2]
	lo, hi := span(m.K[0]*m.K[1], m.workers, w)
	for p := lo; p < hi; p++ {
		m.planZ.transform(m.Re[p*k2:(p+1)*k2], m.Im[p*k2:(p+1)*k2], m.inverse)
	}
}

// RealMesh3 transforms a real K0×K1×K2 mesh Q to and from the
// non-redundant half of its spectrum: the K0×K1×(K2/2+1) complex bins
// with z ≤ K2/2, stored in Re/Im at index (x·K1 + y)·NZ() + z. The other
// bins are their conjugates, X(-m) = conj X(m).
//
// The z pass transforms two real rows with one complex transform: rows
// 2p and 2p+1 of Q serve in place as the real and imaginary part of a
// length-K2 sequence, whose spectrum the Hermitian symmetry of each
// row's own spectrum separates again. The y and x passes are the shared
// row sweeps on half the points. Row pairs, pencils and columns are
// computed independently, so results are bitwise identical for any pool
// worker count.
type RealMesh3 struct {
	K [3]int
	// Q is the real mesh, row-major (index (x·K1 + y)·K2 + z). Forward
	// uses it as scratch; Inverse overwrites it.
	Q []float64
	grid

	planZ     *Plan
	r2cRegion func(w int)
	c2rRegion func(w int)
}

// NewRealMesh3 allocates a zeroed real mesh and its half spectrum; every
// dimension must be a power of two ≥ 2.
func NewRealMesh3(k [3]int) (*RealMesh3, error) {
	plans, err := meshPlans(k)
	if err != nil {
		return nil, err
	}
	m := &RealMesh3{K: k, planZ: plans[2], Q: make([]float64, k[0]*k[1]*k[2])}
	m.grid.init(plans[0], plans[1], k[2]/2+1)
	m.r2cRegion = m.sweepR2CRegion
	m.c2rRegion = m.sweepC2RRegion
	return m, nil
}

// NZ returns the z extent of the half spectrum, K2/2 + 1.
func (m *RealMesh3) NZ() int { return m.nz }

// Clear zeroes the real mesh.
func (m *RealMesh3) Clear() { clear(m.Q) }

// Forward computes the half spectrum (Re, Im) of the real mesh Q:
//
//	X[m] = Σ_k Q[k] · e^{-2πi m·k/K},  0 ≤ m_z ≤ K2/2.
//
// Q's contents are destroyed.
func (m *RealMesh3) Forward(pool Pool) {
	m.run(pool, false, m.r2cRegion)
	m.run(pool, false, m.yRegion)
	m.run(pool, false, m.xRegion)
}

// Inverse computes the unnormalized inverse transform of the half
// spectrum into Q (Forward followed by Inverse scales Q by K0·K1·K2).
// The spectrum must be that of a real mesh; Re/Im are destroyed.
func (m *RealMesh3) Inverse(pool Pool) {
	m.run(pool, true, m.xRegion)
	m.run(pool, true, m.yRegion)
	m.run(pool, true, m.c2rRegion)
}

// rowPair returns the real rows 2p, 2p+1 of Q and the matching spectrum
// rows (a's as ar + i·ai, b's as br + i·bi).
func (m *RealMesh3) rowPair(p int) (a, b, ar, ai, br, bi []float64) {
	k2, nz := m.K[2], m.nz
	a, b = m.Q[2*p*k2:(2*p+1)*k2], m.Q[(2*p+1)*k2:(2*p+2)*k2]
	ar, ai = m.Re[2*p*nz:(2*p+1)*nz], m.Im[2*p*nz:(2*p+1)*nz]
	br, bi = m.Re[(2*p+1)*nz:(2*p+2)*nz], m.Im[(2*p+1)*nz:(2*p+2)*nz]
	return
}

// sweepR2CRegion transforms a worker's share of the row pairs: with
// Z = DFT(a + i·b), the rows' spectra are A[k] = (Z[k] + conj Z[K2-k])/2
// and B[k] = (Z[k] - conj Z[K2-k])/2i.
func (m *RealMesh3) sweepR2CRegion(w int) {
	k2, half := m.K[2], m.K[2]/2
	lo, hi := span(m.K[0]*m.K[1]/2, m.workers, w)
	for p := lo; p < hi; p++ {
		a, b, ar, ai, br, bi := m.rowPair(p)
		m.planZ.transform(a, b, false)
		ar[0], ai[0], br[0], bi[0] = a[0], 0, b[0], 0
		for k := 1; k < half; k++ {
			zr, zi, cr, ci := a[k], b[k], a[k2-k], b[k2-k]
			ar[k], ai[k] = 0.5*(zr+cr), 0.5*(zi-ci)
			br[k], bi[k] = 0.5*(zi+ci), 0.5*(cr-zr)
		}
		ar[half], ai[half], br[half], bi[half] = a[half], 0, b[half], 0
	}
}

// sweepC2RRegion is the inverse of sweepR2CRegion: it rebuilds
// Z = A + i·B on all K2 bins from the half spectra (Z[K2-k] =
// conj A[k] + i·conj B[k]) and inverse-transforms it into the row pair.
// The imaginary parts of bins 0 and K2/2, zero for a real row, are not
// read.
func (m *RealMesh3) sweepC2RRegion(w int) {
	k2, half := m.K[2], m.K[2]/2
	lo, hi := span(m.K[0]*m.K[1]/2, m.workers, w)
	for p := lo; p < hi; p++ {
		a, b, ar, ai, br, bi := m.rowPair(p)
		a[0], b[0] = ar[0], br[0]
		for k := 1; k < half; k++ {
			a[k], b[k] = ar[k]-bi[k], ai[k]+br[k]
			a[k2-k], b[k2-k] = ar[k]+bi[k], br[k]-ai[k]
		}
		a[half], b[half] = ar[half], br[half]
		m.planZ.transform(a, b, true)
	}
}
