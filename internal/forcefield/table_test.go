package forcefield

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"gonamd/internal/units"
)

// TestInteractionTableBuilderValidation pins the builder's input
// contract: unvalidated params, negative/NaN spacings, and spacings
// outside the bin-count bounds are rejected with errors, never built.
func TestInteractionTableBuilderValidation(t *testing.T) {
	p := Standard(9.0)
	rc2 := p.Cutoff * p.Cutoff

	if _, err := (&Params{}).BuildInteractionTable(0); err == nil {
		t.Error("unvalidated params: want error, got table")
	}
	if _, err := p.BuildInteractionTable(-1); err == nil {
		t.Error("negative spacing: want error, got table")
	}
	if _, err := p.BuildInteractionTable(math.NaN()); err == nil {
		t.Error("NaN spacing: want error, got table")
	}
	if _, err := p.BuildInteractionTable(rc2 / (minTableBins - 1)); err == nil {
		t.Error("too-coarse spacing: want error, got table")
	}
	if _, err := p.BuildInteractionTable(rc2 / (2 * maxTableBins)); err == nil {
		t.Error("too-fine spacing: want error, got table")
	}

	tab, err := p.BuildInteractionTable(0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Bins != DefaultTableBins {
		t.Errorf("auto spacing built %d bins, want %d", tab.Bins, DefaultTableBins)
	}
	if got := tab.Spacing * float64(tab.Bins); got != rc2 {
		t.Errorf("grid spans %g, want exactly rc² = %g (spacing must snap)", got, rc2)
	}
	if len(tab.recs) != tab.Bins+1 {
		t.Errorf("table has %d bins, want %d with the guard", len(tab.recs), tab.Bins+1)
	}
}

// TestInteractionTableFootprint pins the default table's size at the
// production 9 Å cutoff to at most 256 KiB, so a later spacing or
// layout change cannot quietly push the kernel's one lookup out of a
// core's L2 cache (the 3 MiB table this one replaced cost the kernel
// its cache misses).
func TestInteractionTableFootprint(t *testing.T) {
	tab, err := Standard(9.0).WithEwald(3.12 / 9).BuildInteractionTable(0)
	if err != nil {
		t.Fatal(err)
	}
	if size := len(tab.recs) * int(unsafe.Sizeof(tab.recs[0])); size > 256<<10 {
		t.Errorf("default table is %d bytes, want ≤ 256 KiB", size)
	}
}

// TestInteractionTableGuardRecord pins the beyond-cutoff contract: the
// final bin is all-zero, so a lookup that rounds onto it at the cutoff
// edge contributes exactly zero force and energy, and Eval at or past
// the cutoff — and at the excluded x = 0 — returns exact zeros.
func TestInteractionTableGuardRecord(t *testing.T) {
	p := Standard(9.0)
	tab, err := p.BuildInteractionTable(0)
	if err != nil {
		t.Fatal(err)
	}
	if g := tab.recs[tab.Bins]; g != (cubic{}) {
		t.Fatalf("guard bin = %+v, want all zero", g)
	}
	if ee, d := tabElec(tab.recs, tab.InvSpacing, -50, tab.Cutoff2); ee != 0 || d != 0 {
		t.Errorf("lookup at the cutoff edge = (%g, %g), want exact zeros", ee, d)
	}
	for _, x := range []float64{0, tab.Cutoff2, tab.Cutoff2 * 1.5} {
		ee, d := tab.Eval(-50, x)
		if ee != 0 || d != 0 {
			t.Errorf("Eval at x=%g = (%g, %g), want exact zeros", x, ee, d)
		}
	}
}

// TestInteractionTableCheckParams pins the misuse guard: a table built
// before WithEwald swaps the electrostatics (or against a different
// cutoff) must panic when handed to a kernel, not silently evaluate
// the wrong interaction.
func TestInteractionTableCheckParams(t *testing.T) {
	p := Standard(9.0)
	tab, err := p.BuildInteractionTable(0)
	if err != nil {
		t.Fatal(err)
	}
	tab.checkParams(p) // matching params must not panic
	mustPanic := func(name string, q *Params) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: checkParams did not panic", name)
			}
		}()
		tab.checkParams(q)
	}
	mustPanic("ewald swap", p.WithEwald(0.35))
	mustPanic("cutoff change", Standard(12.0))
}

// TestNonbondedTabMatchesAnalytic sweeps the scalar tabulated
// evaluation against the analytic Nonbonded over the physical
// separation range for representative type pairs, in both
// electrostatic modes and for modified (1-4) pairs. The van der Waals
// energy is bitwise the analytic one (it is the same arithmetic); at
// the default spacing every force stays within 1e-6 and every energy
// within 1e-7 of the per-pair interaction scale, down to r ≈ 1.4 Å,
// where the h³/x³ spline error of the Coulomb term peaks (≈ 1.3e-7).
func TestNonbondedTabMatchesAnalytic(t *testing.T) {
	for _, mode := range []struct {
		name string
		beta float64
	}{{"shifted", 0}, {"ewald", 0.35}} {
		p := Standard(9.0)
		if mode.beta > 0 {
			p = p.WithEwald(mode.beta)
		}
		tab, err := p.BuildInteractionTable(0)
		if err != nil {
			t.Fatal(err)
		}
		rc2 := p.Cutoff * p.Cutoff
		cases := []struct {
			ti, tj int32
			qi, qj float64
		}{
			{TypeOW, TypeOW, -0.834, -0.834},
			{TypeOW, TypeHW, -0.834, 0.417},
			{TypeHW, TypeHW, 0.417, 0.417},
		}
		for _, c := range cases {
			for _, modified := range []bool{false, true} {
				// The force scale over the swept domain, for relative bounds
				// that stay meaningful through zero crossings.
				fScale := 0.0
				for x := 2.0; x < rc2; x += 0.01 {
					_, _, f := p.Nonbonded(c.ti, c.tj, c.qi, c.qj, x, modified)
					fScale = max(fScale, math.Abs(f)*math.Sqrt(x))
				}
				for x := 2.0; x < rc2; x += 0.01 {
					evA, eeA, fA := p.Nonbonded(c.ti, c.tj, c.qi, c.qj, x, modified)
					evT, eeT, fT := p.NonbondedTab(tab, c.ti, c.tj, c.qi, c.qj, x, modified)
					if evT != evA {
						t.Fatalf("%s %d-%d mod=%v x=%.2f: vdW energy %v, analytic %v (want bitwise)", mode.name, c.ti, c.tj, modified, x, evT, evA)
					}
					if d := math.Abs(fT-fA) * math.Sqrt(x) / fScale; d > 1e-6 {
						t.Fatalf("%s %d-%d mod=%v x=%.2f: force error %.3g of pair scale", mode.name, c.ti, c.tj, modified, x, d)
					}
					if d := math.Abs(eeT - eeA); d > 1e-7*(1+math.Abs(evA+eeA)) {
						t.Fatalf("%s %d-%d mod=%v x=%.2f: energy error %.3g (%g vs %g)", mode.name, c.ti, c.tj, modified, x, d, eeT, eeA)
					}
				}
			}
		}
	}
}

// TestInteractionTableAccuracySweep measures the table's interpolation
// error against the analytic interaction as a function of spacing and
// pins two properties: cubic convergence of the tabulated electrostatic
// derivative (halving the spacing cuts the error ~8×, the h³ signature
// of the cubic Hermite spline; energy converges as h⁴) and the
// production envelope (the default spacing keeps the electrostatic
// derivative within 1e-6 of the analytic one over x ∈ [1, rc²), the
// β = 3.12/rc the engines derive, and the whole pair's force within
// 1e-8 of its scale). Run with -v for the spacing → error sweep table;
// cmd/tableacc prints the same sweep standalone (`make table-accuracy`).
func TestInteractionTableAccuracySweep(t *testing.T) {
	p := Standard(9.0).WithEwald(3.12 / 9)
	rc2 := p.Cutoff * p.Cutoff
	bins := []int{256, 512, 1024, 2048, 4096, 8192, 16384}
	elec := make([]float64, len(bins))
	for i, nb := range bins {
		fErr, eErr, dErr := TableForceError(p, rc2/float64(nb), 1.0)
		elec[i] = dErr
		t.Logf("bins %6d  spacing %.3g Å²  pair force %.3g  pair energy %.3g  elec dT/dx %.3g", nb, rc2/float64(nb), fErr, eErr, dErr)
		if nb == DefaultTableBins {
			if dErr > 1e-6 {
				t.Errorf("default spacing electrostatic derivative error %.3g exceeds 1e-6", dErr)
			}
			if fErr > 1e-8 {
				t.Errorf("default spacing pair force error %.3g exceeds 1e-8", fErr)
			}
		}
	}
	for i := 1; i < len(bins); i++ {
		if ratio := elec[i-1] / elec[i]; ratio < 6.5 || ratio > 9.5 {
			t.Errorf("error ratio %d→%d bins = %.2f, want ≈ 8 (h³ convergence)", bins[i-1], bins[i], ratio)
		}
	}
}

// ljBranchy is the van der Waals term in the branchy form the kernels
// carried before the switch select: ljSwitched.eval must stay bitwise it.
func ljBranchy(p *Params, A, B, x float64) (ev, dEdx float64) {
	rc2 := p.Cutoff * p.Cutoff
	rs2 := p.SwitchDist * p.SwitchDist
	invX := 1 / x
	invX3 := invX * invX * invX
	a6 := A * invX3 * invX3
	b3 := B * invX3
	v := a6 - b3
	dvdx := (3*b3 - 6*a6) * invX
	if x <= rs2 {
		return v, dvdx
	}
	invDenom := 1 / ((rc2 - rs2) * (rc2 - rs2) * (rc2 - rs2))
	d := rc2 - x
	sw := d * d * (rc2 - 3*rs2 + 2*x) * invDenom
	dswdx := d * (rs2 - x) * (6 * invDenom)
	return v * sw, dvdx*sw + v*dswdx
}

// FuzzInteractionTable drives the table through random charge folds,
// electrostatic modes, spacings, and the full r² domain — including the
// cutoff edge, beyond-cutoff, and the divergent r² → 0 region — checking
// that every evaluation is finite, beyond-cutoff evaluations are exactly
// zero, and in-domain evaluations track the analytic term within the
// cubic Hermite spline's a-priori error bound. The LJ fold (A, B) checks
// the shared analytic van der Waals term: its branch-free switch select
// is bitwise the branchy form wherever that is finite.
func FuzzInteractionTable(f *testing.F) {
	f.Add(9.0, 0.35, 0.5, 581980.0, 595.0, -0.834*0.417, 8.0)
	f.Add(9.0, 0.0, 0.0, 0.0, 0.0, 0.25, 80.999999)
	f.Add(12.0, 0.26, 1.0, 1e7, 1e3, -1.0, 0.001)
	f.Add(9.0, 0.0, 0.25, 1.0, 1.0, 0.0, 81.0)
	f.Fuzz(func(t *testing.T, cutoff, beta, spacingFrac, A, B, qqRaw, x float64) {
		// Sanitize into the supported domain; reject what the builder
		// itself rejects rather than re-testing validation here.
		if !(cutoff >= 4 && cutoff <= 16) || math.IsNaN(beta) || beta < 0 || beta > 2 {
			t.Skip()
		}
		if !(spacingFrac >= 0 && spacingFrac <= 1) {
			t.Skip()
		}
		if math.IsNaN(A) || math.IsNaN(B) || math.IsNaN(qqRaw) || math.IsNaN(x) {
			t.Skip()
		}
		A = math.Mod(math.Abs(A), 1e7)
		B = math.Mod(math.Abs(B), 1e4)
		qq := units.Coulomb * math.Mod(qqRaw, 2)
		p := Standard(cutoff)
		if beta > 0 {
			p = p.WithEwald(beta)
		}
		rc2 := p.Cutoff * p.Cutoff
		// spacingFrac spans the legal bin range from fine to coarse.
		spacing := spacingFrac * rc2 / minTableBins
		tab, err := p.BuildInteractionTable(spacing)
		if err != nil {
			t.Skip() // builder rejected the spacing; covered by unit tests
		}
		x = math.Abs(math.Mod(x, 2*rc2))

		if x > 0 && x < rc2 {
			wantV, wantD := ljBranchy(p, A, B, x)
			if !math.IsInf(wantV, 0) && !math.IsInf(wantD, 0) && !math.IsNaN(wantD) {
				v, d := ljPow(A, B, 1/x)
				lj := p.lj()
				if v, d = lj.switched(x, v, d); v != wantV || d != wantD {
					t.Fatalf("LJ(A=%g, B=%g, x=%g) = (%v, %v), branchy form (%v, %v)", A, B, x, v, d, wantV, wantD)
				}
			}
		}

		ee, dEdx := tab.Eval(qq, x)
		if math.IsNaN(ee) || math.IsInf(ee, 0) || math.IsNaN(dEdx) || math.IsInf(dEdx, 0) {
			t.Fatalf("Eval(qq=%g, x=%g) not finite: (%g, %g)", qq, x, ee, dEdx)
		}
		if x >= rc2 {
			if ee != 0 || dEdx != 0 {
				t.Fatalf("beyond cutoff x=%g (rc²=%g): (%g, %g), want exact zeros", x, rc2, ee, dEdx)
			}
			return
		}
		h := tab.Spacing
		if x < h {
			return // bin 0 is finite but not accurate (see table.go)
		}

		// In-domain: the cubic Hermite error bounds are h⁴·max|T⁗|/384 on
		// the value and ~h³·max|T⁗|/125 on the derivative, with T⁗ largest
		// at the bin's left knot xk. For the 1/√x power law that is
		// ≈ 0.02·h⁴/xk⁴ and ≈ 0.1·h³/xk³ of the Coulomb scale — asserted
		// with 10× headroom; the Ewald erfc factor decays like a Gaussian,
		// which adds relative terms in (β²h)⁴ and (β²h)³. The scale is the
		// unshifted Coulomb term plus the component itself, so it does not
		// vanish where the shifted Coulomb does at the cutoff.
		te, dte := p.tableElec(x)
		xk := math.Floor(x/h) * h
		b2h := beta * beta * h
		boundE := 0.2*math.Pow(h/xk, 4) + 10*math.Pow(b2h, 4)
		boundD := math.Pow(h/xk, 3) + 10*math.Pow(b2h, 3)
		if max(boundE, boundD) > 0.5 {
			// The a-priori error estimate for this (spacing, x) exceeds
			// O(1): a legal-but-ultra-coarse table carries no accuracy
			// claim this deep inside the first bins, so there is nothing
			// to assert beyond the finiteness checked above.
			return
		}
		scaleE := math.Abs(qq)*(math.Abs(te)+1/math.Sqrt(x)) + 1e-300
		scaleD := math.Abs(qq)*(math.Abs(dte)+0.5/(x*math.Sqrt(x))) + 1e-300
		// Round-off floor: the cubic's c2, c3 come from knot-energy
		// differences, each carrying an ulp of T, which the derivative
		// divides by h — relative to dT/dx (≥ T/2x) that is ~ε·2x/h, large
		// only for tables far finer than the default.
		boundE = max(boundE, 1e-12)
		boundD = max(boundD, 1e-12, 1e-14*x/h)
		if d := math.Abs(ee-qq*te) / scaleE; d > boundE {
			t.Fatalf("energy error %.3g exceeds bound %.3g at x=%g (h=%g)", d, boundE, x, h)
		}
		if d := math.Abs(dEdx-qq*dte) / scaleD; d > boundD {
			t.Fatalf("force error %.3g exceeds bound %.3g at x=%g (h=%g)", d, boundD, x, h)
		}
	})
}

// TestInteractionTableErrorMessages pins that builder errors carry
// actionable spacing bounds.
func TestInteractionTableErrorMessages(t *testing.T) {
	p := Standard(9.0)
	_, err := p.BuildInteractionTable(10)
	if err == nil || !strings.Contains(err.Error(), "spacing ≤") {
		t.Errorf("coarse-spacing error %v should state the legal bound", err)
	}
}
