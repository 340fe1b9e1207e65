package pme

import (
	"math"
	"sync"
	"testing"

	"gonamd/internal/fft"
	"gonamd/internal/units"
	"gonamd/internal/vec"
)

// madelungNaCl is the Madelung constant of the rock-salt structure
// (energy per ion = -M·C·q²/r₀ with r₀ the nearest-neighbor distance).
const madelungNaCl = 1.7475645946

// naclLattice builds cells³ conventional NaCl unit cells of lattice
// constant a: alternating ±1 charges on a simple cubic lattice of
// spacing a/2.
func naclLattice(cells int, a float64) (pos []vec.V3, q []float64, box vec.V3) {
	r0 := a / 2
	n := 2 * cells // lattice points per axis
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				pos = append(pos, vec.New(float64(x)*r0, float64(y)*r0, float64(z)*r0))
				if (x+y+z)%2 == 0 {
					q = append(q, 1)
				} else {
					q = append(q, -1)
				}
			}
		}
	}
	side := float64(cells) * a
	return pos, q, vec.New(side, side, side)
}

// realSpaceEnergy sums the erfc-screened pair energy over all
// minimum-image pairs within the cutoff (no exclusions), optionally
// accumulating forces.
func realSpaceEnergy(pos []vec.V3, q []float64, box vec.V3, beta, cutoff float64, f []vec.V3) float64 {
	total := 0.0
	rc2 := cutoff * cutoff
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			dr := vec.MinImage(pos[i], pos[j], box)
			r2 := dr.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			qq := units.Coulomb * q[i] * q[j]
			br := beta * r
			total += qq * math.Erfc(br) / r
			if f != nil {
				fr := qq * (math.Erfc(br)/r2 + 2*beta/math.SqrtPi*math.Exp(-br*br)/r) / r
				fv := dr.Scale(fr)
				f[i] = f[i].Add(fv)
				f[j] = f[j].Sub(fv)
			}
		}
	}
	return total
}

// madelungFromTotal converts a total lattice energy to the Madelung
// constant: E_total = -N·M·C·q²/(2·r₀).
func madelungFromTotal(total float64, n int, r0 float64) float64 {
	return -total * 2 * r0 / (float64(n) * units.Coulomb)
}

// TestMadelungDirectEwald reproduces the NaCl Madelung constant with the
// explicit k-space Ewald sum.
func TestMadelungDirectEwald(t *testing.T) {
	const a = 4.0
	pos, q, box := naclLattice(2, a)
	beta := 0.9
	d := &Direct{Beta: beta, Box: box, KMax: 14, RealCutoff: box.X / 2}
	total := d.Energy(pos, q, nil)
	m := madelungFromTotal(total, len(pos), a/2)
	if rel := math.Abs(m-madelungNaCl) / madelungNaCl; rel > 1e-4 {
		t.Fatalf("direct Ewald Madelung = %.7f, want %.7f (rel err %.2e)", m, madelungNaCl, rel)
	}
}

// TestMadelungPME reproduces the same constant through the full PME path:
// erfc real space + B-spline mesh reciprocal + self energy.
func TestMadelungPME(t *testing.T) {
	const a = 4.0
	pos, q, box := naclLattice(2, a)
	beta := 0.9
	r, err := NewRecipK(box, [3]int{32, 32, 32}, beta)
	if err != nil {
		t.Fatal(err)
	}
	f := make([]vec.V3, len(pos))
	erec, _ := r.Compute(pos, q, f, fft.Serial{})
	total := erec + realSpaceEnergy(pos, q, box, beta, box.X/2, nil) + SelfEnergy(q, beta)
	m := madelungFromTotal(total, len(pos), a/2)
	if rel := math.Abs(m-madelungNaCl) / madelungNaCl; rel > 1e-4 {
		t.Fatalf("PME Madelung = %.7f, want %.7f (rel err %.2e)", m, madelungNaCl, rel)
	}
}

// perturbedSalt returns a slightly-distorted salt lattice so that forces
// are nonzero (the perfect lattice has zero force by symmetry).
func perturbedSalt() (pos []vec.V3, q []float64, box vec.V3) {
	pos, q, box = naclLattice(2, 4.0)
	// Deterministic pseudo-random displacements, ±0.15 Å.
	s := uint64(12345)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return (float64(s>>11)/float64(1<<53) - 0.5) * 0.3
	}
	for i := range pos {
		pos[i] = vec.Wrap(pos[i].Add(vec.New(next(), next(), next())), box)
	}
	return pos, q, box
}

// TestPMEForcesMatchDirectEwald compares the mesh solver's total forces
// and energy against the explicit k-sum on a distorted configuration.
func TestPMEForcesMatchDirectEwald(t *testing.T) {
	pos, q, box := perturbedSalt()
	beta := 0.9
	n := len(pos)

	fDir := make([]vec.V3, n)
	d := &Direct{Beta: beta, Box: box, KMax: 14, RealCutoff: box.X / 2}
	eDir := d.Energy(pos, q, fDir)

	r, err := NewRecipK(box, [3]int{64, 64, 64}, beta)
	if err != nil {
		t.Fatal(err)
	}
	fPME := make([]vec.V3, n)
	erec, _ := r.Compute(pos, q, fPME, fft.Serial{})
	realF := make([]vec.V3, n)
	ereal := realSpaceEnergy(pos, q, box, beta, box.X/2, realF)
	ePME := erec + ereal + SelfEnergy(q, beta)
	for i := range fPME {
		fPME[i] = fPME[i].Add(realF[i])
	}

	if rel := math.Abs(ePME-eDir) / math.Abs(eDir); rel > 1e-5 {
		t.Fatalf("PME energy %.6f vs direct %.6f (rel err %.2e)", ePME, eDir, rel)
	}
	// Force comparison relative to the RMS force magnitude.
	rms := 0.0
	for _, fv := range fDir {
		rms += fv.Norm2()
	}
	rms = math.Sqrt(rms / float64(n))
	worst := 0.0
	for i := range fDir {
		if dev := fPME[i].Sub(fDir[i]).Norm(); dev > worst {
			worst = dev
		}
	}
	if worst/rms > 1e-3 {
		t.Fatalf("PME worst force deviation %.3e (rms %.3e, rel %.2e)", worst, rms, worst/rms)
	}
}

// waitPool runs the pool region on real goroutines.
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

// TestRecipWorkerDeterminism pins the core determinism contract: the
// reciprocal energy, virial, and every force component are bitwise
// identical for 1, 2, 3, 5, and 8 workers.
func TestRecipWorkerDeterminism(t *testing.T) {
	pos, q, box := perturbedSalt()
	beta := 0.9
	n := len(pos)

	ref, err := NewRecipK(box, [3]int{16, 16, 16}, beta)
	if err != nil {
		t.Fatal(err)
	}
	fRef := make([]vec.V3, n)
	eRef, vRef := ref.Compute(pos, q, fRef, fft.Serial{})

	for _, workers := range []int{2, 3, 5, 8} {
		r, err := NewRecipK(box, [3]int{16, 16, 16}, beta)
		if err != nil {
			t.Fatal(err)
		}
		f := make([]vec.V3, n)
		e, v := r.Compute(pos, q, f, waitPool{workers})
		if e != eRef || v != vRef {
			t.Fatalf("workers=%d: energy/virial (%v, %v) differ from serial (%v, %v)", workers, e, v, eRef, vRef)
		}
		for i := range f {
			if f[i] != fRef[i] {
				t.Fatalf("workers=%d: force[%d] = %v, serial %v", workers, i, f[i], fRef[i])
			}
		}
	}
}

// TestRecipRepeatDeterminism: two runs of the same solver instance give
// identical results (scratch reuse must not leak state).
func TestRecipRepeatDeterminism(t *testing.T) {
	pos, q, box := perturbedSalt()
	r, err := NewRecipK(box, [3]int{16, 16, 16}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	n := len(pos)
	f1 := make([]vec.V3, n)
	f2 := make([]vec.V3, n)
	e1, v1 := r.Compute(pos, q, f1, fft.Serial{})
	e2, v2 := r.Compute(pos, q, f2, fft.Serial{})
	if e1 != e2 || v1 != v2 {
		t.Fatalf("repeat run drifted: (%v, %v) vs (%v, %v)", e1, v1, e2, v2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("repeat force[%d] drifted: %v vs %v", i, f1[i], f2[i])
		}
	}
}

// TestRecipWorkerDeterminismSmallMesh repeats the determinism contract on
// the minimum mesh (K0 = 4), where 8 workers outnumber the x-planes and
// most own no slab, and on a non-cubic mesh.
func TestRecipWorkerDeterminismSmallMesh(t *testing.T) {
	pos, q, box := perturbedSalt()
	n := len(pos)
	for _, k := range [][3]int{{4, 4, 4}, {4, 8, 16}, {16, 8, 4}} {
		ref, err := NewRecipK(box, k, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		fRef := make([]vec.V3, n)
		eRef, vRef := ref.Compute(pos, q, fRef, fft.Serial{})
		for _, workers := range []int{2, 3, 4, 8} {
			r, err := NewRecipK(box, k, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			f := make([]vec.V3, n)
			e, v := r.Compute(pos, q, f, waitPool{workers})
			if e != eRef || v != vRef {
				t.Fatalf("K=%v workers=%d: energy/virial (%v, %v) differ from serial (%v, %v)", k, workers, e, v, eRef, vRef)
			}
			for i := range f {
				if f[i] != fRef[i] {
					t.Fatalf("K=%v workers=%d: force[%d] = %v, serial %v", k, workers, i, f[i], fRef[i])
				}
			}
		}
	}
}

// TestRecipHalfSpectrumEnergyMatchesFull checks the weighted half-spectrum
// energy and virial sums (weight 2 on interior z-bins, 1 on z = 0 and
// z = K2/2) against the plain sum over every bin of the complex
// transform of the same charge mesh.
func TestRecipHalfSpectrumEnergyMatchesFull(t *testing.T) {
	pos, q, box := perturbedSalt()
	for _, k := range [][3]int{{4, 4, 4}, {16, 16, 16}, {8, 16, 32}} {
		r, err := NewRecipK(box, k, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		f := make([]vec.V3, len(pos))
		e, v := r.Compute(pos, q, f, fft.Serial{})

		// The charge mesh again, into the complex oracle.
		r.begin(pos, q, f, fft.Serial{})
		r.mesh.Clear()
		r.spreadRegion(0)
		full, err := fft.NewMesh3(k)
		if err != nil {
			t.Fatal(err)
		}
		copy(full.Re, r.mesh.Q)
		full.Forward(fft.Serial{})
		var bmod [3][]float64
		for d := range bmod {
			bmod[d] = splineModuli(k[d])
		}
		var eFull, vFull float64
		for x := 0; x < k[0]; x++ {
			for y := 0; y < k[1]; y++ {
				for z := 0; z < k[2]; z++ {
					i := full.Idx(x, y, z)
					em := units.Coulomb / 2 * r.influence(&bmod, x, y, z) * (full.Re[i]*full.Re[i] + full.Im[i]*full.Im[i])
					m2 := r.mhat2[0][x] + r.mhat2[1][y] + r.mhat2[2][z]
					eFull += em
					vFull += em * (1 - 2*math.Pi*math.Pi/(r.Beta*r.Beta)*m2)
				}
			}
		}
		if rel := math.Abs(e-eFull) / math.Abs(eFull); rel > 1e-12 {
			t.Fatalf("K=%v: half-spectrum energy %.15g vs full %.15g (rel %.2e)", k, e, eFull, rel)
		}
		if rel := math.Abs(v-vFull) / math.Abs(vFull); rel > 1e-12 {
			t.Fatalf("K=%v: half-spectrum virial %.15g vs full %.15g (rel %.2e)", k, v, vFull, rel)
		}
	}
}

// waterLike builds a charge-neutral, water-shaped benchmark problem:
// three-site molecules (-0.834, +0.417, +0.417) on a jittered lattice,
// in molecule order like a generated water box — 11,079 atoms in a 48 Å
// box, the md-pme workload's size.
func waterLike() (pos []vec.V3, q []float64, box vec.V3) {
	const side, perAxis, molecules = 48.0, 16, 3693
	box = vec.New(side, side, side)
	s := uint64(2024)
	jitter := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11)/float64(1<<53) - 0.5
	}
	h := side / perAxis
	for m := 0; m < molecules; m++ {
		o := vec.New(float64(m/(perAxis*perAxis))*h, float64(m/perAxis%perAxis)*h, float64(m%perAxis)*h)
		o = o.Add(vec.New(jitter(), jitter(), jitter()))
		for site, charge := range []float64{-0.834, 0.417, 0.417} {
			at := o
			if site > 0 {
				at = o.Add(vec.New(jitter(), jitter(), jitter()).Scale(1.6))
			}
			pos = append(pos, vec.Wrap(at, box))
			q = append(q, charge)
		}
	}
	return pos, q, box
}

// BenchmarkRecipCompute times one reciprocal evaluation of the md-pme
// sized problem (11k atoms, 64³ mesh) on one thread, whole and by phase.
// Each phase runs on the state a real evaluation hands it, restored
// outside the timer where the phase consumes its input.
func BenchmarkRecipCompute(b *testing.B) {
	pos, q, box := waterLike()
	r, err := NewRecip(box, 1.0, 0.35)
	if err != nil {
		b.Fatal(err)
	}
	if r.K != [3]int{64, 64, 64} {
		b.Fatalf("mesh %v, want 64³", r.K)
	}
	f := make([]vec.V3, len(pos))
	pool := fft.Serial{}
	r.Compute(pos, q, f, pool)
	potential := append([]float64(nil), r.mesh.Q...)
	r.begin(pos, q, f, pool)
	r.mesh.Clear()
	r.spreadRegion(0)
	charge := append([]float64(nil), r.mesh.Q...)
	r.mesh.Forward(pool)
	specRe := append([]float64(nil), r.mesh.Re...)
	specIm := append([]float64(nil), r.mesh.Im...)

	phases := []struct {
		name    string
		restore func()
		run     func()
	}{
		{"total", nil, func() { r.Compute(pos, q, f, pool) }},
		{"spline", nil, func() { r.splineRegion(0) }},
		{"spread", nil, func() { r.mesh.Clear(); r.spreadRegion(0) }},
		{"fft", func() { copy(r.mesh.Q, charge) }, func() { r.mesh.Forward(pool); r.mesh.Inverse(pool) }},
		{"convolve", func() { copy(r.mesh.Re, specRe); copy(r.mesh.Im, specIm) }, func() { r.convolveRegion(0) }},
		{"gather", func() { copy(r.mesh.Q, potential) }, func() { r.gatherRegion(0) }},
	}
	for _, ph := range phases {
		b.Run(ph.name, func(b *testing.B) {
			r.begin(pos, q, f, pool)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ph.restore != nil {
					b.StopTimer()
					ph.restore()
					b.StartTimer()
				}
				ph.run()
			}
		})
	}
}

// TestExclusionTermDerivative checks fOverR against a numerical
// derivative of the correction energy.
func TestExclusionTermDerivative(t *testing.T) {
	const qq, beta = 332.0636 * 0.8 * -0.4, 0.35
	for _, r := range []float64{1.0, 1.5, 2.7, 5.0} {
		h := 1e-6
		ep, _ := ExclusionTerm(qq, (r+h)*(r+h), beta)
		em, _ := ExclusionTerm(qq, (r-h)*(r-h), beta)
		dEdr := (ep - em) / (2 * h)
		_, fOverR := ExclusionTerm(qq, r*r, beta)
		want := -dEdr / r
		if math.Abs(fOverR-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("r=%g: fOverR = %g, numerical %g", r, fOverR, want)
		}
	}
}

// TestBackgroundEnergyNeutral: zero for neutral charge sets, negative
// otherwise.
func TestBackgroundEnergy(t *testing.T) {
	box := vec.New(10, 10, 10)
	if e := BackgroundEnergy([]float64{1, -1, 0.5, -0.5}, 0.3, box); e != 0 {
		t.Fatalf("neutral background energy = %g, want 0", e)
	}
	if e := BackgroundEnergy([]float64{1, 1}, 0.3, box); e >= 0 {
		t.Fatalf("charged background energy = %g, want < 0", e)
	}
}

// TestSelfEnergy pins the closed form on a simple charge set.
func TestSelfEnergy(t *testing.T) {
	q := []float64{1, -2}
	beta := 0.4
	want := -units.Coulomb * beta / math.SqrtPi * 5
	if got := SelfEnergy(q, beta); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SelfEnergy = %g, want %g", got, want)
	}
}
