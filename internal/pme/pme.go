// Package pme implements smooth particle-mesh Ewald electrostatics
// (Essmann et al., J. Chem. Phys. 103, 8577 (1995)) — the full-range
// Coulomb method the paper's production runs combine with multiple
// timestepping. The total Ewald energy splits into
//
//   - a short-range real-space part, qᵢqⱼ·erfc(βr)/r, evaluated inside
//     the nonbonded cutoff by the engines' pair kernels (see
//     forcefield.Params.EwaldBeta);
//   - the reciprocal-space sum computed here on a periodic mesh:
//     order-4 cardinal B-spline charge spreading, a 3D FFT, convolution
//     with the Ewald influence function, inverse FFT, and an analytic
//     force gather through the spline derivatives;
//   - constant self and (for non-neutral boxes) background corrections;
//   - per-pair corrections, -qᵢqⱼ·erf(βr)/r, for pairs the force field
//     excludes or scales (the reciprocal sum cannot omit them).
//
// Every stage is deterministic and bitwise independent of the worker
// count: spreading partitions mesh x-slabs (each mesh point is written
// by exactly one worker, scanning atoms in index order), the real-input
// FFT (fft.RealMesh3) works on independent row pairs, pencils and
// columns, convolution energy is accumulated per x-plane of the half
// spectrum and reduced serially, and the gather is per-atom.
package pme

import (
	"fmt"
	"math"

	"gonamd/internal/fft"
	"gonamd/internal/units"
	"gonamd/internal/vec"
)

const order = 4 // cardinal B-spline interpolation order

// Recip computes the reciprocal-space PME sum for a fixed box and mesh.
type Recip struct {
	Beta float64
	K    [3]int
	Box  vec.V3

	mesh *fft.RealMesh3
	// infl is the precomputed influence function on the half spectrum
	// the real transform produces (z ≤ K2/2, indexed like mesh.Re):
	// B(m)·exp(-π²m̂²/β²)/(π·V·m̂²), zero at m = 0. Multiplying the
	// forward transform by infl and inverse-transforming yields the
	// convolved potential mesh the gather reads.
	infl []float64
	// mhat2 holds the per-axis fractional frequency components squared,
	// for the virial factor (recomputed per point from 1D tables).
	mhat2 [3][]float64
	// zScale is the energy prefactor of each half-spectrum z-bin:
	// Coulomb/2 for the self-conjugate bins z = 0 and z = K2/2, twice
	// that for the interior bins, which also stand for their conjugates
	// at K2-z.
	zScale []float64

	// Per-atom spline caches, sized to the last Compute's atom count.
	base [][3]int32      // leftmost mesh point of each atom's 4³ support
	wgt  [][3][4]float64 // B-spline weights per axis
	dwgt [][3][4]float64 // B-spline weight derivatives per axis (d/du)

	// Per-x-plane energy and virial partials, reduced serially so the
	// result is independent of how workers split the convolution.
	planeE []float64
	planeV []float64

	// Arguments of the Compute in flight, read by the region functions.
	// These are bound once at construction: a fresh closure per Pool.Run
	// would cost a heap allocation per phase and evaluation.
	pos     []vec.V3
	q       []float64
	f       []vec.V3
	workers int

	splineFn, spreadFn, convolveFn, gatherFn func(w int)
}

// NewRecip builds a reciprocal-space solver with mesh dimensions chosen
// as the smallest powers of two giving at most gridSpacing Å per mesh
// point along each axis.
func NewRecip(box vec.V3, gridSpacing, beta float64) (*Recip, error) {
	if gridSpacing <= 0 {
		return nil, fmt.Errorf("pme: grid spacing %g must be positive", gridSpacing)
	}
	k := [3]int{}
	for d := 0; d < 3; d++ {
		k[d] = fft.NextPow2(int(math.Ceil(box.Comp(d) / gridSpacing)))
	}
	return NewRecipK(box, k, beta)
}

// NewRecipK builds a reciprocal-space solver with explicit mesh
// dimensions (each a power of two ≥ 4, to hold the order-4 stencil).
func NewRecipK(box vec.V3, k [3]int, beta float64) (*Recip, error) {
	if beta <= 0 {
		return nil, fmt.Errorf("pme: beta %g must be positive", beta)
	}
	if box.X <= 0 || box.Y <= 0 || box.Z <= 0 {
		return nil, fmt.Errorf("pme: box %v must be positive", box)
	}
	for d := 0; d < 3; d++ {
		if k[d] < order {
			return nil, fmt.Errorf("pme: mesh dimension %d is %d, need ≥ %d", d, k[d], order)
		}
	}
	mesh, err := fft.NewRealMesh3(k)
	if err != nil {
		return nil, err
	}
	r := &Recip{Beta: beta, K: k, Box: box, mesh: mesh}
	r.buildInfluence()
	r.planeE = make([]float64, k[0])
	r.planeV = make([]float64, k[0])
	r.splineFn, r.spreadFn = r.splineRegion, r.spreadRegion
	r.convolveFn, r.gatherFn = r.convolveRegion, r.gatherRegion
	return r, nil
}

// MeshPoints returns the total number of mesh points.
func (r *Recip) MeshPoints() int { return r.K[0] * r.K[1] * r.K[2] }

// splineModuli returns |b(m)|⁻² for one axis: the squared modulus of the
// denominator Σ_{k=0}^{order-2} M₄(k+1)·e^{2πi m k/K} (Essmann eq. 4.4).
// The numerator phase factor has unit modulus and cancels in B(m).
func splineModuli(k int) []float64 {
	// M₄ at the interior knots: M₄(1) = 1/6, M₄(2) = 4/6, M₄(3) = 1/6.
	const c1, c2, c3 = 1.0 / 6, 4.0 / 6, 1.0 / 6
	out := make([]float64, k)
	for m := 0; m < k; m++ {
		th := 2 * math.Pi * float64(m) / float64(k)
		re := c1 + c2*math.Cos(th) + c3*math.Cos(2*th)
		im := c2*math.Sin(th) + c3*math.Sin(2*th)
		out[m] = re*re + im*im
	}
	return out
}

// buildInfluence precomputes infl, zScale and the per-axis m̂² tables.
func (r *Recip) buildInfluence() {
	var bmod [3][]float64
	for d := 0; d < 3; d++ {
		bmod[d] = splineModuli(r.K[d])
		r.mhat2[d] = make([]float64, r.K[d])
		for m := 0; m < r.K[d]; m++ {
			mm := m
			if mm > r.K[d]/2 {
				mm -= r.K[d]
			}
			mh := float64(mm) / r.Box.Comp(d)
			r.mhat2[d][m] = mh * mh
		}
	}
	nz := r.mesh.NZ()
	r.infl = make([]float64, r.K[0]*r.K[1]*nz)
	idx := 0
	for x := 0; x < r.K[0]; x++ {
		for y := 0; y < r.K[1]; y++ {
			for z := 0; z < nz; z++ {
				r.infl[idx] = r.influence(&bmod, x, y, z)
				idx++
			}
		}
	}
	r.zScale = make([]float64, nz)
	for z := range r.zScale {
		r.zScale[z] = units.Coulomb
	}
	r.zScale[0], r.zScale[nz-1] = units.Coulomb/2, units.Coulomb/2
}

// influence evaluates the influence function at mesh frequency
// (x, y, z), any z in [0, K2); bmod holds the per-axis spline moduli.
func (r *Recip) influence(bmod *[3][]float64, x, y, z int) float64 {
	m2 := r.mhat2[0][x] + r.mhat2[1][y] + r.mhat2[2][z]
	if m2 == 0 {
		return 0
	}
	vol := r.Box.X * r.Box.Y * r.Box.Z
	b := 1 / (bmod[0][x] * bmod[1][y] * bmod[2][z])
	return b * math.Exp(-math.Pi*math.Pi/(r.Beta*r.Beta)*m2) / (math.Pi * vol * m2)
}

// spline4 fills w with the order-4 cardinal B-spline weights and d with
// their derivatives for fractional offset t ∈ [0, 1): w[j] multiplies the
// mesh point base+j where base = floor(u) - 3 and t = u - floor(u).
func spline4(t float64, w, d *[4]float64) {
	omt := 1 - t
	w[0] = omt * omt * omt / 6
	w[1] = (3*t*t*t - 6*t*t + 4) / 6
	w[2] = (-3*t*t*t + 3*t*t + 3*t + 1) / 6
	w[3] = t * t * t / 6
	d[0] = -omt * omt / 2
	d[1] = (3*t*t - 4*t) / 2
	d[2] = (-3*t*t + 2*t + 1) / 2
	d[3] = t * t / 2
}

func (r *Recip) ensureAtomCaches(n int) {
	if cap(r.base) < n {
		r.base = make([][3]int32, n)
		r.wgt = make([][3][4]float64, n)
		r.dwgt = make([][3][4]float64, n)
	}
	r.base = r.base[:n]
	r.wgt = r.wgt[:n]
	r.dwgt = r.dwgt[:n]
}

// Compute evaluates the reciprocal-space energy, forces, and virial for
// the given positions and charges, splitting the work over the pool.
// Forces (kcal/mol/Å) are written — not accumulated — into f, which must
// have len(pos) entries; the returned energy and virial are in kcal/mol.
// Results are bitwise identical for any pool worker count, and Compute
// allocates nothing once the atom caches are sized.
func (r *Recip) Compute(pos []vec.V3, q []float64, f []vec.V3, pool fft.Pool) (energy, virial float64) {
	r.begin(pos, q, f, pool)
	pool.Run(r.splineFn)
	r.mesh.Clear()
	pool.Run(r.spreadFn)

	// Forward transform, convolution with the influence function, and
	// inverse transform. Energy and virial accumulate per x-plane into
	// fixed slots, summed serially here.
	r.mesh.Forward(pool)
	pool.Run(r.convolveFn)
	for x := range r.planeE {
		energy += r.planeE[x]
		virial += r.planeV[x]
	}
	r.mesh.Inverse(pool)
	pool.Run(r.gatherFn)
	r.pos, r.q, r.f = nil, nil, nil
	return energy, virial
}

// begin records the arguments of one evaluation for the region functions.
func (r *Recip) begin(pos []vec.V3, q []float64, f []vec.V3, pool fft.Pool) {
	r.pos, r.q, r.f, r.workers = pos, q, f, pool.Workers()
	r.ensureAtomCaches(len(pos))
}

// splineRegion is the per-atom spline phase: fractional mesh coordinate,
// stencil base, weights and derivatives. Independent per atom.
func (r *Recip) splineRegion(w int) {
	lo, hi := span(len(r.pos), r.workers, w)
	for i := lo; i < hi; i++ {
		for d := 0; d < 3; d++ {
			u := r.pos[i].Comp(d) / r.Box.Comp(d) * float64(r.K[d])
			fl := math.Floor(u)
			t := u - fl
			b := int32(fl) - (order - 1)
			kd := int32(r.K[d])
			b %= kd
			if b < 0 {
				b += kd
			}
			r.base[i][d] = b
			spline4(t, &r.wgt[i][d], &r.dwgt[i][d])
		}
	}
}

// spreadRegion deposits charges on the (cleared) real mesh: each worker
// owns a contiguous range of mesh x-slabs and scans all atoms in index
// order, depositing only the stencil rows that fall in its range. Each
// mesh point is therefore written by exactly one worker with a fixed,
// worker-count-independent accumulation order.
func (r *Recip) spreadRegion(w int) {
	k0, k1, k2 := r.K[0], r.K[1], r.K[2]
	xlo, xhi := span(k0, r.workers, w)
	if xlo == xhi {
		return
	}
	mesh := r.mesh.Q
	for i, qi := range r.q {
		if qi == 0 {
			continue
		}
		bx := int(r.base[i][0])
		for a := 0; a < order; a++ {
			x := bx + a
			if x >= k0 {
				x -= k0
			}
			if x < xlo || x >= xhi {
				continue
			}
			wx := qi * r.wgt[i][0][a]
			by := int(r.base[i][1])
			bz := int(r.base[i][2])
			rowBase := x * k1 * k2
			for b := 0; b < order; b++ {
				y := by + b
				if y >= k1 {
					y -= k1
				}
				wxy := wx * r.wgt[i][1][b]
				rb := rowBase + y*k2
				for c := 0; c < order; c++ {
					z := bz + c
					if z >= k2 {
						z -= k2
					}
					mesh[rb+z] += wxy * r.wgt[i][2][c]
				}
			}
		}
	}
}

// convolveRegion multiplies a worker's x-planes of the half spectrum by
// the influence function and leaves each plane's energy and virial in
// its own slot. A bin's term is the full-spectrum one, Coulomb/2·g·|X|²,
// counted once for the self-conjugate z-bins and twice for the interior
// ones (zScale).
func (r *Recip) convolveRegion(w int) {
	k1, nz := r.K[1], r.mesh.NZ()
	xlo, xhi := span(r.K[0], r.workers, w)
	re, im, infl := r.mesh.Re, r.mesh.Im, r.infl
	zScale, mz2 := r.zScale, r.mhat2[2]
	twoPi2OverBeta2 := 2 * math.Pi * math.Pi / (r.Beta * r.Beta)
	for x := xlo; x < xhi; x++ {
		var pe, pv float64
		idx := x * k1 * nz
		for y := 0; y < k1; y++ {
			m2xy := r.mhat2[0][x] + r.mhat2[1][y]
			for z := 0; z < nz; z++ {
				g := infl[idx]
				em := zScale[z] * g * (re[idx]*re[idx] + im[idx]*im[idx])
				pe += em
				pv += em * (1 - twoPi2OverBeta2*(m2xy+mz2[z]))
				re[idx] *= g
				im[idx] *= g
				idx++
			}
		}
		r.planeE[x] = pe
		r.planeV[x] = pv
	}
}

// gatherRegion computes F_i = -q_i Σ_stencil ∇W_i · conv from the
// inverse-transformed mesh. With the unnormalized DFT pair (forward
// e^{-2πi}, inverse e^{+2πi}, no 1/N), ∂E/∂Q(k) is exactly
// Coulomb·conv(k) — no mesh-size normalization appears. Per-atom, so
// worker-count independent.
func (r *Recip) gatherRegion(w int) {
	k0, k1, k2 := r.K[0], r.K[1], r.K[2]
	gscale := units.Coulomb
	sx := float64(k0) / r.Box.X
	sy := float64(k1) / r.Box.Y
	sz := float64(k2) / r.Box.Z
	lo, hi := span(len(r.pos), r.workers, w)
	mesh := r.mesh.Q
	for i := lo; i < hi; i++ {
		qi := r.q[i]
		if qi == 0 {
			r.f[i] = vec.Zero
			continue
		}
		var fx, fy, fz float64
		bx, by, bz := int(r.base[i][0]), int(r.base[i][1]), int(r.base[i][2])
		for a := 0; a < order; a++ {
			x := bx + a
			if x >= k0 {
				x -= k0
			}
			wx, dx := r.wgt[i][0][a], r.dwgt[i][0][a]
			rowBase := x * k1 * k2
			for b := 0; b < order; b++ {
				y := by + b
				if y >= k1 {
					y -= k1
				}
				wy, dy := r.wgt[i][1][b], r.dwgt[i][1][b]
				rb := rowBase + y*k2
				for c := 0; c < order; c++ {
					z := bz + c
					if z >= k2 {
						z -= k2
					}
					wz, dz := r.wgt[i][2][c], r.dwgt[i][2][c]
					v := mesh[rb+z]
					fx += dx * wy * wz * v
					fy += wx * dy * wz * v
					fz += wx * wy * dz * v
				}
			}
		}
		r.f[i] = vec.New(-qi*gscale*fx*sx, -qi*gscale*fy*sy, -qi*gscale*fz*sz)
	}
}

// span mirrors fft's contiguous partition (kept local to avoid exporting
// it from fft for this alone).
func span(n, workers, w int) (lo, hi int) {
	return n * w / workers, n * (w + 1) / workers
}

// SelfEnergy returns the Ewald self-interaction correction
// -β/√π · Σ qᵢ² (kcal/mol), a constant for fixed charges.
func SelfEnergy(q []float64, beta float64) float64 {
	sum := 0.0
	for _, qi := range q {
		sum += qi * qi
	}
	return -units.Coulomb * beta / math.SqrtPi * sum
}

// BackgroundEnergy returns the neutralizing-background correction
// -π/(2Vβ²)·(Σqᵢ)² (kcal/mol), zero for a neutral box. It makes the
// Ewald energy of a charged system well-defined by adding a uniform
// compensating charge density.
func BackgroundEnergy(q []float64, beta float64, box vec.V3) float64 {
	sum := 0.0
	for _, qi := range q {
		sum += qi
	}
	vol := box.X * box.Y * box.Z
	return -units.Coulomb * math.Pi / (2 * vol * beta * beta) * sum * sum
}

// ExclusionTerm returns the correction energy and fOverR for one pair
// whose direct Coulomb interaction the force field excludes (or scales):
// the reciprocal sum includes the full 1/r interaction of every pair, so
// the screened complement -qq·erf(βr)/r must be subtracted for the
// excluded fraction. qq is the product Coulomb·qᵢ·qⱼ·(excluded fraction);
// the force on atom i is d.Scale(fOverR) with d = rᵢ - rⱼ, matching the
// pair-kernel convention.
func ExclusionTerm(qq, r2, beta float64) (energy, fOverR float64) {
	r := math.Sqrt(r2)
	br := beta * r
	erfTerm := math.Erf(br)
	energy = -qq * erfTerm / r
	// dE/dr = -qq·[2β/√π·e^{-β²r²}/r - erf(βr)/r²]; fOverR = -(dE/dr)/r.
	fOverR = qq * (2*beta/math.SqrtPi*math.Exp(-br*br)/r2 - erfTerm/(r2*r))
	return energy, fOverR
}
