package fft

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(re, im []float64, inverse bool) ([]float64, []float64) {
	n := len(re)
	outRe := make([]float64, n)
	outIm := make([]float64, n)
	sign := -2 * math.Pi
	if inverse {
		sign = 2 * math.Pi
	}
	for m := 0; m < n; m++ {
		for k := 0; k < n; k++ {
			ang := sign * float64(m) * float64(k) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			outRe[m] += re[k]*c - im[k]*s
			outIm[m] += re[k]*s + im[k]*c
		}
	}
	return outRe, outIm
}

func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 8, 16, 64} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		wantRe, wantIm := naiveDFT(re, im, false)
		gotRe := append([]float64(nil), re...)
		gotIm := append([]float64(nil), im...)
		p.Forward(gotRe, gotIm)
		for i := range gotRe {
			if math.Abs(gotRe[i]-wantRe[i]) > 1e-9 || math.Abs(gotIm[i]-wantIm[i]) > 1e-9 {
				t.Fatalf("n=%d: forward[%d] = (%g, %g), want (%g, %g)",
					n, i, gotRe[i], gotIm[i], wantRe[i], wantIm[i])
			}
		}
	}
}

func TestPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 128
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = rng.NormFloat64()
		im[i] = rng.NormFloat64()
	}
	origRe := append([]float64(nil), re...)
	origIm := append([]float64(nil), im...)
	p.Forward(re, im)
	p.Inverse(re, im)
	for i := range re {
		if math.Abs(re[i]/float64(n)-origRe[i]) > 1e-12 || math.Abs(im[i]/float64(n)-origIm[i]) > 1e-12 {
			t.Fatalf("round trip [%d]: (%g, %g)/n vs (%g, %g)", i, re[i], im[i], origRe[i], origIm[i])
		}
	}
}

func TestPlanParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 64
	p, _ := NewPlan(n)
	re := make([]float64, n)
	im := make([]float64, n)
	sumX := 0.0
	for i := range re {
		re[i] = rng.NormFloat64()
		im[i] = rng.NormFloat64()
		sumX += re[i]*re[i] + im[i]*im[i]
	}
	p.Forward(re, im)
	sumF := 0.0
	for i := range re {
		sumF += re[i]*re[i] + im[i]*im[i]
	}
	if rel := math.Abs(sumF/float64(n)-sumX) / sumX; rel > 1e-12 {
		t.Fatalf("Parseval violated: Σ|X|²/n = %g vs Σ|x|² = %g", sumF/float64(n), sumX)
	}
}

func TestNewPlanRejectsNonPow2(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Fatalf("NewPlan(%d) accepted", n)
		}
	}
}

// waitPool is a real concurrent pool for the determinism test.
type waitPool struct{ n int }

func (p waitPool) Workers() int { return p.n }
func (p waitPool) Run(f func(w int)) {
	var wg sync.WaitGroup
	wg.Add(p.n)
	for w := 0; w < p.n; w++ {
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

func randomMesh(t *testing.T, k [3]int, seed int64) *Mesh3 {
	t.Helper()
	m, err := NewMesh3(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Re {
		m.Re[i] = rng.NormFloat64()
		m.Im[i] = rng.NormFloat64()
	}
	return m
}

func TestMesh3RoundTrip(t *testing.T) {
	k := [3]int{8, 16, 4}
	m := randomMesh(t, k, 3)
	orig := append([]float64(nil), m.Re...)
	m.Forward(Serial{})
	m.Inverse(Serial{})
	scale := float64(k[0] * k[1] * k[2])
	for i := range m.Re {
		if math.Abs(m.Re[i]/scale-orig[i]) > 1e-12 {
			t.Fatalf("mesh round trip [%d]: %g vs %g", i, m.Re[i]/scale, orig[i])
		}
	}
}

// TestMesh3WorkerDeterminism pins the PME determinism contract at the FFT
// layer: the 3D transform is bitwise identical for 1, 2, 3, and 8
// workers, because each pencil is transformed independently.
func TestMesh3WorkerDeterminism(t *testing.T) {
	k := [3]int{16, 8, 32}
	ref := randomMesh(t, k, 5)
	ref.Forward(Serial{})
	for _, workers := range []int{2, 3, 8} {
		m := randomMesh(t, k, 5)
		m.Forward(waitPool{workers})
		for i := range m.Re {
			if m.Re[i] != ref.Re[i] || m.Im[i] != ref.Im[i] {
				t.Fatalf("workers=%d: mesh[%d] = (%v, %v), serial (%v, %v)",
					workers, i, m.Re[i], m.Im[i], ref.Re[i], ref.Im[i])
			}
		}
	}
}

// TestMesh3AgainstNaive cross-checks one small 3D transform against the
// triple naive DFT.
func TestMesh3AgainstNaive(t *testing.T) {
	k := [3]int{4, 2, 8}
	m := randomMesh(t, k, 9)
	// Naive 3D DFT.
	n := k[0] * k[1] * k[2]
	wantRe := make([]float64, n)
	wantIm := make([]float64, n)
	for mx := 0; mx < k[0]; mx++ {
		for my := 0; my < k[1]; my++ {
			for mz := 0; mz < k[2]; mz++ {
				var accRe, accIm float64
				for x := 0; x < k[0]; x++ {
					for y := 0; y < k[1]; y++ {
						for z := 0; z < k[2]; z++ {
							ang := -2 * math.Pi * (float64(mx*x)/float64(k[0]) +
								float64(my*y)/float64(k[1]) + float64(mz*z)/float64(k[2]))
							c, s := math.Cos(ang), math.Sin(ang)
							idx := m.Idx(x, y, z)
							accRe += m.Re[idx]*c - m.Im[idx]*s
							accIm += m.Re[idx]*s + m.Im[idx]*c
						}
					}
				}
				idx := m.Idx(mx, my, mz)
				wantRe[idx], wantIm[idx] = accRe, accIm
			}
		}
	}
	m.Forward(Serial{})
	for i := range m.Re {
		if math.Abs(m.Re[i]-wantRe[i]) > 1e-9 || math.Abs(m.Im[i]-wantIm[i]) > 1e-9 {
			t.Fatalf("mesh[%d] = (%g, %g), want (%g, %g)", i, m.Re[i], m.Im[i], wantRe[i], wantIm[i])
		}
	}
}

// pencilTransform3 is the reference 3D transform: every z, y, then x
// pencil gathered into contiguous scratch and run through the 1D Plan.
func pencilTransform3(t *testing.T, k [3]int, re, im []float64, inverse bool) {
	t.Helper()
	var plans [3]*Plan
	for d := range plans {
		p, err := NewPlan(k[d])
		if err != nil {
			t.Fatal(err)
		}
		plans[d] = p
	}
	strides := [3]int{k[1] * k[2], k[2], 1}
	for _, d := range []int{2, 1, 0} {
		sr, si := make([]float64, k[d]), make([]float64, k[d])
		for base := range re {
			if base/strides[d]%k[d] != 0 {
				continue // not the first element of a pencil along d
			}
			for j := range sr {
				sr[j], si[j] = re[base+j*strides[d]], im[base+j*strides[d]]
			}
			plans[d].transform(sr, si, inverse)
			for j := range sr {
				re[base+j*strides[d]], im[base+j*strides[d]] = sr[j], si[j]
			}
		}
	}
}

// testDims are the mesh shapes the transform tests cover: cubic and
// non-cubic, down to the PME minimum K = 4.
var testDims = [][3]int{{4, 4, 4}, {8, 8, 8}, {16, 16, 16}, {64, 64, 64}, {4, 8, 16}, {64, 16, 8}}

func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestMesh3DifferentialRowSweepsVsPencils pins the row-swept 3D transform
// to the per-pencil reference bit for bit, forward and inverse, for
// worker counts above K0 and an x-pass chunk that divides nothing.
func TestMesh3DifferentialRowSweepsVsPencils(t *testing.T) {
	for _, k := range testDims {
		for _, inverse := range []bool{false, true} {
			ref := randomMesh(t, k, 17)
			pencilTransform3(t, k, ref.Re, ref.Im, inverse)
			for _, workers := range []int{1, 2, 3, 4, 8} {
				for _, chunk := range []int{xChunk, 37} {
					m := randomMesh(t, k, 17)
					m.chunk = chunk
					m.transform(waitPool{workers}, inverse)
					if i := bitsEqual(m.Re, ref.Re); i >= 0 {
						t.Fatalf("K=%v inverse=%v workers=%d chunk=%d: Re[%d] = %v, pencil reference %v",
							k, inverse, workers, chunk, i, m.Re[i], ref.Re[i])
					}
					if i := bitsEqual(m.Im, ref.Im); i >= 0 {
						t.Fatalf("K=%v inverse=%v workers=%d chunk=%d: Im[%d] = %v, pencil reference %v",
							k, inverse, workers, chunk, i, m.Im[i], ref.Im[i])
					}
				}
			}
		}
	}
}

func randomRealMesh(t *testing.T, k [3]int, seed int64) *RealMesh3 {
	t.Helper()
	m, err := NewRealMesh3(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Q {
		m.Q[i] = rng.NormFloat64()
	}
	return m
}

// TestRealMesh3DifferentialVsComplex checks the half spectrum against the
// complex transform of the same real data, to 1e-12 of the largest bin.
func TestRealMesh3DifferentialVsComplex(t *testing.T) {
	for _, k := range testDims {
		rm := randomRealMesh(t, k, 23)
		cm, _ := NewMesh3(k)
		copy(cm.Re, rm.Q)
		rm.Forward(Serial{})
		cm.Forward(Serial{})
		maxAbs := 0.0
		for i := range cm.Re {
			maxAbs = math.Max(maxAbs, math.Hypot(cm.Re[i], cm.Im[i]))
		}
		nz := rm.NZ()
		if nz != k[2]/2+1 || len(rm.Re) != k[0]*k[1]*nz {
			t.Fatalf("K=%v: NZ = %d, len(Re) = %d", k, nz, len(rm.Re))
		}
		for x := 0; x < k[0]; x++ {
			for y := 0; y < k[1]; y++ {
				for z := 0; z < nz; z++ {
					h, c := (x*k[1]+y)*nz+z, cm.Idx(x, y, z)
					if d := math.Hypot(rm.Re[h]-cm.Re[c], rm.Im[h]-cm.Im[c]); d > 1e-12*maxAbs {
						t.Fatalf("K=%v bin (%d,%d,%d): real (%g, %g), complex (%g, %g), |Δ|/max = %.2e",
							k, x, y, z, rm.Re[h], rm.Im[h], cm.Re[c], cm.Im[c], d/maxAbs)
					}
				}
			}
		}
	}
}

// TestRealMesh3RoundTrip checks c2r∘r2c = K0·K1·K2 · identity.
func TestRealMesh3RoundTrip(t *testing.T) {
	for _, k := range testDims {
		m := randomRealMesh(t, k, 29)
		orig := append([]float64(nil), m.Q...)
		m.Forward(Serial{})
		m.Inverse(Serial{})
		scale := float64(k[0] * k[1] * k[2])
		for i := range m.Q {
			if math.Abs(m.Q[i]/scale-orig[i]) > 1e-12 {
				t.Fatalf("K=%v round trip [%d]: %g vs %g", k, i, m.Q[i]/scale, orig[i])
			}
		}
	}
}

// TestRealMesh3WorkerDeterminism pins the real transform pair bitwise
// across worker counts (including more workers than x-planes) and an
// x-pass chunk that does not divide K1·NZ.
func TestRealMesh3WorkerDeterminism(t *testing.T) {
	for _, k := range [][3]int{{4, 8, 16}, {16, 8, 32}} {
		ref := randomRealMesh(t, k, 31)
		ref.Forward(Serial{})
		refRe := append([]float64(nil), ref.Re...)
		refIm := append([]float64(nil), ref.Im...)
		ref.Inverse(Serial{})
		for _, workers := range []int{2, 3, 4, 8} {
			m := randomRealMesh(t, k, 31)
			m.chunk = 37
			m.Forward(waitPool{workers})
			if i := bitsEqual(m.Re, refRe); i >= 0 {
				t.Fatalf("K=%v workers=%d: forward Re[%d] = %v, serial %v", k, workers, i, m.Re[i], refRe[i])
			}
			if i := bitsEqual(m.Im, refIm); i >= 0 {
				t.Fatalf("K=%v workers=%d: forward Im[%d] = %v, serial %v", k, workers, i, m.Im[i], refIm[i])
			}
			m.Inverse(waitPool{workers})
			if i := bitsEqual(m.Q, ref.Q); i >= 0 {
				t.Fatalf("K=%v workers=%d: inverse Q[%d] = %v, serial %v", k, workers, i, m.Q[i], ref.Q[i])
			}
		}
	}
}

func benchForwardInverse(b *testing.B, forward, inverse func(Pool)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forward(Serial{})
		inverse(Serial{})
	}
}

func BenchmarkMesh3ForwardInverse(b *testing.B) {
	b.Run("64", func(b *testing.B) {
		m, _ := NewMesh3([3]int{64, 64, 64})
		for i := range m.Re {
			m.Re[i] = float64(i%17) - 8
		}
		benchForwardInverse(b, m.Forward, m.Inverse)
	})
}

func BenchmarkRealMesh3ForwardInverse(b *testing.B) {
	b.Run("64", func(b *testing.B) {
		m, _ := NewRealMesh3([3]int{64, 64, 64})
		for i := range m.Q {
			m.Q[i] = float64(i%17) - 8
		}
		benchForwardInverse(b, m.Forward, m.Inverse)
	})
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 2, 1: 2, 2: 2, 3: 4, 16: 16, 17: 32, 100: 128}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
