// Package fft provides the deterministic fast Fourier transforms behind
// the particle-mesh Ewald solver (internal/pme). There is no cgo and no
// hidden state.
//
// Plan is the 1D kernel: an iterative in-place radix-2 complex FFT with
// precomputed twiddle factors, on split re/im slices. It transforms one
// contiguous pencil (transform) or, with identical arithmetic per
// element, many strided pencils at once as a block of contiguous rows
// (sweepRows) — the form the y and x passes of the 3D transforms use, so
// that no pass ever gathers a strided pencil element by element.
//
// Mesh3 is the complex K0×K1×K2 transform (z pencils, then y and x row
// sweeps). RealMesh3 is the transform PME runs: a real mesh to the
// K0×K1×(K2/2+1) half of its Hermitian spectrum and back, with the z
// pass transforming two real rows per complex transform and the y/x
// sweeps working on half the points. Mesh3 stays as the general
// transform and as the oracle RealMesh3 is tested against.
//
// Work is split over a Pool by contiguous index ranges — z pencils (or
// row pairs), (x, z) pencils, x-pass columns — and every element's
// result depends only on its own pencil, so all transforms are bitwise
// identical no matter how many workers share them.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Pool runs a data-parallel region: Run invokes f(w) for every worker
// index w in [0, Workers()) — possibly concurrently — and returns when
// all calls have finished. Implementations must guarantee the calls see
// each other's prior writes only through Run's completion (the usual
// fork/join model). Serial is the trivial implementation, which a
// one-worker engine runs on; internal/engine adapts the persistent pool
// of a multi-worker one to this interface.
type Pool interface {
	Workers() int
	Run(f func(w int))
}

// Serial is the single-threaded Pool: Run calls f(0) inline.
type Serial struct{}

// Workers returns 1.
func (Serial) Workers() int { return 1 }

// Run calls f(0) on the calling goroutine.
func (Serial) Run(f func(w int)) { f(0) }

// span returns worker w's half-open slice [lo, hi) of n items under an
// even contiguous partition — the fixed work division every sweep uses.
func span(n, workers, w int) (lo, hi int) {
	lo = n * w / workers
	hi = n * (w + 1) / workers
	return
}

// Plan holds the precomputed state of a 1D complex FFT of power-of-two
// length n: the bit-reversal permutation and the twiddle factors of every
// butterfly stage.
type Plan struct {
	n   int
	rev []int32
	// cosTab/sinTab hold e^{-2πi k/n} for k in [0, n/2): the forward
	// twiddles. The inverse transform conjugates on the fly.
	cosTab []float64
	sinTab []float64
}

// NewPlan builds a plan for length n, which must be a power of two ≥ 1.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a power of two", n)
	}
	p := &Plan{n: n, rev: make([]int32, n)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	p.cosTab = make([]float64, n/2)
	p.sinTab = make([]float64, n/2)
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.cosTab[k] = math.Cos(ang)
		p.sinTab[k] = math.Sin(ang)
	}
	return p, nil
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// Forward computes the in-place forward DFT
//
//	X[m] = Σ_k x[k] · e^{-2πi m k / n}
//
// over the complex sequence (re[k], im[k]). len(re) and len(im) must
// equal the plan length.
func (p *Plan) Forward(re, im []float64) { p.transform(re, im, false) }

// Inverse computes the in-place unnormalized inverse DFT (conjugate
// twiddles, no 1/n scaling): applying Forward then Inverse multiplies
// the sequence by n.
func (p *Plan) Inverse(re, im []float64) { p.transform(re, im, true) }

func (p *Plan) transform(re, im []float64, inverse bool) {
	n := p.n
	if len(re) != n || len(im) != n {
		panic("fft: slice length does not match plan")
	}
	for i, j := range p.rev {
		if int32(i) < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size // twiddle table stride
		for start := 0; start < n; start += size {
			for k, tw := 0, 0; k < half; k, tw = k+1, tw+step {
				wr, wi := p.cosTab[tw], p.sinTab[tw]
				if inverse {
					wi = -wi
				}
				a, b := start+k, start+k+half
				tr := re[b]*wr - im[b]*wi
				ti := re[b]*wi + im[b]*wr
				re[b] = re[a] - tr
				im[b] = im[a] - ti
				re[a] += tr
				im[a] += ti
			}
		}
	}
}

// sweepRows applies the plan's length-n transform along the row index of
// n equally long rows at once: row r is re[r·stride : r·stride+width]
// (and likewise im), and every column of the block gets exactly the
// arithmetic transform gives one pencil — bit reversal as whole-row
// swaps, then each butterfly with its twiddle hoisted out of a
// contiguous run over the row pair. The result is therefore bitwise the
// per-pencil transform's, for any way the columns are cut into blocks.
func (p *Plan) sweepRows(re, im []float64, stride, width int, inverse bool) {
	n := p.n
	for i, j := range p.rev {
		if int32(i) < j {
			a, b := i*stride, int(j)*stride
			swapRows(re[a:a+width], re[b:b+width])
			swapRows(im[a:a+width], im[b:b+width])
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size // twiddle table stride
		for start := 0; start < n; start += size {
			for k, tw := 0, 0; k < half; k, tw = k+1, tw+step {
				wr, wi := p.cosTab[tw], p.sinTab[tw]
				if inverse {
					wi = -wi
				}
				a := (start + k) * stride
				b := a + half*stride
				ar, ai := re[a:a+width], im[a:a+width]
				br, bi := re[b:b+width], im[b:b+width]
				for j := range ar {
					tr := br[j]*wr - bi[j]*wi
					ti := br[j]*wi + bi[j]*wr
					br[j] = ar[j] - tr
					bi[j] = ai[j] - ti
					ar[j] += tr
					ai[j] += ti
				}
			}
		}
	}
}

func swapRows(a, b []float64) {
	for j := range a {
		a[j], b[j] = b[j], a[j]
	}
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 2).
func NextPow2(n int) int {
	k := 2
	for k < n {
		k <<= 1
	}
	return k
}
