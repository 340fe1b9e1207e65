package forcefield

import (
	"fmt"
	"math"

	"gonamd/internal/units"
)

// Tabulated electrostatics: the one transcendental of the Ewald
// real-space pair interaction precomputed on a uniform grid in x = r²,
// so the tabulated cluster kernel needs no Sqrt and no Erfc/Exp.
// Lennard-Jones and its switch stay analytic — the kernels share one
// definition of them (ljSwitched), so the tabulated kernel's van der
// Waals terms are bitwise the analytic kernel's and the two differ only
// in the electrostatic term (the split of the GROMACS cluster-pair
// kernels). The table holds one geometry-only component, with the
// charge product folded in at evaluation time:
//
//	E(x) = qq·T(x)
//
//	T(x) = erfc(β√x)/√x            Ewald real space, or
//	       (1/√x)·(1 − x/rc²)²     shifted Coulomb when β = 0
//
// Each bin of width h stores the cubic Hermite spline that matches T and
// its exact derivative dT/dx at both knots, as coefficients in
// t = x/h − i ∈ [0, 1):
//
//	T(t)  = c0 + t·(c1 + t·(c2 + t·c3))
//	dT/dx = (c1 + t·(2·c2 + 3t·c3)) / h
//
// The kernels take the force from the derivative of that cubic, and the
// cubics join with matching value and slope, so the tabulated force is
// the exact gradient of a C¹ potential — the tabulated dynamics conserve
// their own (slightly perturbed) Hamiltonian, which is what keeps their
// NVE drift as good as the analytic kernel's. Against the analytic term
// the force error converges as h³ and the energy error as h⁴ (pinned by
// TestInteractionTableAccuracySweep).
//
// Knot 0 cannot be sampled at x = 0 where 1/√x diverges; it is sampled
// at the finite inner point h/8 instead. Bin 0 is therefore finite but
// not accurate: the table's accuracy envelope holds for x ≥ h (≈ 0.02 Å²
// at the default spacing — far inside any physical contact distance),
// and FuzzInteractionTable pins finiteness below that.

// cubic is one table bin, four words: T(t) = c0 + t·(c1 + t·(c2 + t·c3)).
type cubic struct{ c0, c1, c2, c3 float64 }

// DefaultTableBins is the bin count auto-derived spacing aims for:
// spacing = cutoff²/DefaultTableBins. At a 9 Å cutoff that is
// h ≈ 0.0198 Å² and a 128 KiB table, which stays in a core's L2 cache,
// with a maximum relative dT/dx error of 8·10⁻⁷ over x ∈ [1, 81) Å² at
// β = 0.3466 — the smallest power of two at or below the 2.9·10⁻⁶ of the
// 32,768-bin quadratic table of all three LJ + Coulomb components it
// replaced (`make table-accuracy` prints the sweep).
const DefaultTableBins = 4096

// maxTableBins caps user-requested spacings so a typo cannot allocate
// gigabytes (1<<20 bins ≈ 32 MB of float64 table).
const maxTableBins = 1 << 20

// minTableBins rejects spacings too coarse to interpolate 1/√x at
// contact distances.
const minTableBins = 64

// InteractionTable is a built r²-indexed electrostatic table. It
// captures Cutoff and EwaldBeta from the Params it was built from; the
// tabulated kernels panic if handed a Params whose electrostatic mode or
// cutoff no longer matches (the engines rebuild the table after enabling
// PME, which swaps the Params via WithEwald).
type InteractionTable struct {
	Spacing    float64 // bin width h in x = r², Å²
	InvSpacing float64 // 1/h
	Bins       int     // bin count N; the grid spans [0, N·h] = [0, rc²]
	Cutoff2    float64 // rc², the table's upper edge
	EwaldBeta  float64 // β baked into T (0 = shifted Coulomb)

	// recs holds Bins+1 bins. Bin N is an all-zero guard: x < rc² can
	// still round to x·(1/h) = N at the cutoff edge, and that lookup then
	// contributes exactly zero force and energy instead of needing a
	// branch or a clamp.
	recs []cubic
}

// BuildInteractionTable precomputes the electrostatic table for the
// parameter set at the given bin spacing (in Å² of r²). A spacing of 0
// auto-derives cutoff²/DefaultTableBins. The spacing is snapped so an
// integer number of bins lands exactly on cutoff². The Params must have
// been Validated, and the table must be rebuilt if Cutoff or EwaldBeta
// change afterwards.
func (p *Params) BuildInteractionTable(spacing float64) (*InteractionTable, error) {
	if p.Cutoff <= 0 || p.SwitchDist <= 0 || p.SwitchDist >= p.Cutoff {
		return nil, fmt.Errorf("forcefield: interaction table requires validated params (cutoff %g, switchdist %g)", p.Cutoff, p.SwitchDist)
	}
	rc2 := p.Cutoff * p.Cutoff
	if spacing < 0 || math.IsNaN(spacing) {
		return nil, fmt.Errorf("forcefield: table spacing %g must be ≥ 0 (0 = auto)", spacing)
	}
	if spacing == 0 {
		spacing = rc2 / DefaultTableBins
	}
	bins := int(math.Ceil(rc2 / spacing))
	if bins < minTableBins {
		return nil, fmt.Errorf("forcefield: table spacing %g Å² gives %d bins; need ≥ %d (spacing ≤ %g)", spacing, bins, minTableBins, rc2/minTableBins)
	}
	if bins > maxTableBins {
		return nil, fmt.Errorf("forcefield: table spacing %g Å² gives %d bins; max %d (spacing ≥ %g)", spacing, bins, maxTableBins, rc2/maxTableBins)
	}
	h := rc2 / float64(bins)

	tab := &InteractionTable{
		Spacing:    h,
		InvSpacing: 1 / h,
		Bins:       bins,
		Cutoff2:    rc2,
		EwaldBeta:  p.EwaldBeta,
		recs:       make([]cubic, bins+1),
	}
	// Knot 0 uses the finite inner point h/8 (see the package comment
	// above); knot N uses exactly rc² so the table's edge matches the
	// kernels' cutoff test. Bin N, the guard, stays all-zero: make's zero
	// value evaluates to exactly zero energy and force for any t.
	e0, d0 := p.tableElec(h / 8)
	for i := 0; i < bins; i++ {
		x1 := h * float64(i+1)
		if i+1 == bins {
			x1 = rc2
		}
		e1, d1 := p.tableElec(x1)
		s0, s1 := h*d0, h*d1 // slopes in t
		tab.recs[i] = cubic{e0, s0, 3*(e1-e0) - 2*s0 - s1, 2*(e0-e1) + s0 + s1}
		e0, d0 = e1, d1
	}
	return tab, nil
}

// tableElec evaluates the tabulated component T and its x-derivative at
// one sample point 0 < x ≤ rc² with the analytic kernels' shared helpers
// (qq = 1), so the table converges on the analytic interaction as h → 0.
func (p *Params) tableElec(x float64) (te, dte float64) {
	invX := 1 / x
	r := math.Sqrt(x)
	invR := r * invX
	if beta := p.EwaldBeta; beta > 0 {
		return elecEwaldReal(1, r, invR, invX, beta, beta/math.SqrtPi)
	}
	return elecShiftedCoulomb(1, invR, invX, x, 1/(p.Cutoff*p.Cutoff))
}

// tabElec is the lookup of the tabulated kernels: the electrostatic
// energy qq·T(x) and its x-derivative from the cubic of x's bin, for
// 0 < x < rc² (recs and invH are the table's). Small enough to inline
// into the kernel's pair loop, which a call would cost ~5 %.
func tabElec(recs []cubic, invH, qq, x float64) (ee, dEdx float64) {
	xh := x * invH
	bin := int(xh)
	t := xh - float64(bin)
	k := &recs[bin]
	return qq * (k.c0 + t*(k.c1+t*(k.c2+t*k.c3))), qq * invH * (k.c1 + t*(2*k.c2+3*t*k.c3))
}

// Eval evaluates the tabulated electrostatic term for the charge product
// qq (units.Coulomb·qi·qj, 1-4 scaled by the caller) at squared
// separation x, returning the energy and dE/dx (force on i =
// −2·dEdx·dr) — the lookup of the tabulated cluster kernel, under its
// domain contract: zero at x == 0 and from the cutoff outward.
func (tab *InteractionTable) Eval(qq, x float64) (eelec, dEdx float64) {
	if x == 0 || x >= tab.Cutoff2 {
		return 0, 0
	}
	return tabElec(tab.recs, tab.InvSpacing, qq, x)
}

// NonbondedTab is the scalar tabulated counterpart of Nonbonded: the
// same signature and analytic van der Waals term, with the electrostatic
// term looked up in the table. It exists for differential tests and the
// accuracy sweep; the engines call the cluster kernels.
func (p *Params) NonbondedTab(tab *InteractionTable, ti, tj int32, qi, qj, r2 float64, modified bool) (evdw, eelec, fOverR float64) {
	if r2 == 0 || r2 >= tab.Cutoff2 {
		return 0, 0, 0
	}
	var pp pairParam
	qq := units.Coulomb * qi * qj
	if modified {
		pp = p.pair14[int(ti)*p.ntypes+int(tj)]
		qq *= p.Scale14Elec
	} else {
		pp = p.pair[int(ti)*p.ntypes+int(tj)]
	}
	v, dvdx := ljPow(pp.A, pp.B, 1/r2)
	lj := p.lj()
	evdw, dEdxVdw := lj.switched(r2, v, dvdx)
	eelec, dEdxElec := tab.Eval(qq, r2)
	return evdw, eelec, -2 * (dEdxVdw + dEdxElec)
}

// checkParams panics if the table was built for a different interaction
// than the Params now describe — the failure mode this catches is
// building the table before WithEwald swaps the electrostatic kernel.
func (tab *InteractionTable) checkParams(p *Params) {
	if rc2 := p.Cutoff * p.Cutoff; tab.Cutoff2 != rc2 || tab.EwaldBeta != p.EwaldBeta {
		panic(fmt.Sprintf("forcefield: interaction table built for (rc²=%g, β=%g) used with params (rc²=%g, β=%g)",
			tab.Cutoff2, tab.EwaldBeta, rc2, p.EwaldBeta))
	}
}
