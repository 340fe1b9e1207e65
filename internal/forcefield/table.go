package forcefield

import (
	"fmt"
	"math"

	"gonamd/internal/units"
)

// Tabulated interactions: the combined LJ + electrostatic pair
// interaction precomputed on a uniform grid in x = r², GROMACS-style, so
// the cluster inner loop needs no Sqrt, no Erfc/Exp, and no
// switching-function branch — just a table lookup and multiply-adds.
//
// The pair interaction is decomposed into three geometry-only components
// with the per-pair parameters folded back in at evaluation time:
//
//	E(x) = A·TR(x) + B·TD(x) + qq·TE(x)
//
//	TR(x) = x⁻⁶·sw(x)               repulsion  (folds the combined LJ A)
//	TD(x) = −x⁻³·sw(x)              dispersion (folds the combined LJ B)
//	TE(x) = erfc(β√x)/√x            Ewald real space  (folds qq), or
//	        (1/√x)·(1 − x/rc²)²     shifted Coulomb when β = 0
//
// sw is the C1 switching function of the analytic kernels, baked into
// TR/TD so the tabulated kernel has no SwitchDist branch. Per type pair
// the fold is three scalar multipliers (A, B from the combined pair
// tables, qq from the charges), which is why three shared component
// tables suffice instead of ntypes² per-pair tables.
//
// Each component is stored as a quadratic Hermite spline over bins of
// width h: per bin the knot energy E_i, the knot derivative D_i =
// dE/dx(x_i), and the derivative increment ΔD_i = D_{i+1} − D_i. The
// kernels reconstruct, with t = x/h − i ∈ [0, 1):
//
//	D(t) = D_i + t·ΔD_i                      (linear in t, C0 at knots)
//	E(t) = E_i + (h·t/2)·(D_i + D(t))        (exact integral of D(t))
//
// Because E(t) is the exact integral of the continuous piecewise-linear
// D, the tabulated force is the exact gradient of a continuous
// piecewise-quadratic potential — the tabulated dynamics conserve their
// own (slightly perturbed) Hamiltonian, which is what makes the NVE
// drift of the tabulated kernels as good as the analytic ones. The
// reported energy differs from that potential only by the O(h³)
// per-bin trapezoid defect at knot seams. Interpolation error against
// the analytic interaction scales as h² (pinned by
// TestInteractionTableAccuracySweep).
//
// Knot 0 cannot be sampled at x = 0 where x⁻⁶ diverges; it is sampled
// at the finite inner point h/8 instead. Bin 0 is therefore finite and
// strongly repulsive but not accurate: the table's accuracy envelope
// holds for x ≥ h (≈ 0.005 Å² at the default spacing — far inside any
// physical contact distance), and FuzzInteractionTable pins finiteness
// below that.

// tabStride is the float64 word count per table bin: three components ×
// (E_i, D_i, ΔD_i) plus three words of padding so a bin spans exactly
// 96 bytes (1.5 cache lines) and bin addressing is a single multiply.
const tabStride = 12

// DefaultTableBins is the bin count auto-derived spacing aims for:
// spacing = cutoff²/DefaultTableBins. At a 9 Å cutoff that is
// h ≈ 0.0025 Å², a ~3 MB table, and a
// relative force error of order 7h²/x² ≈ 1·10⁻⁶ at LJ-contact
// separations — the per-atom error on a minimized ApoA-I box stays
// inside the 1e-5 production envelope with ~4× headroom (16384 bins
// measures right at the envelope there: protein heavy-atom contacts sit
// deeper in the repulsive wall than water's).
const DefaultTableBins = 32768

// maxTableBins caps user-requested spacings so a typo cannot allocate
// gigabytes (1<<20 bins ≈ 100 MB of float64 table).
const maxTableBins = 1 << 20

// minTableBins rejects spacings too coarse to interpolate the LJ wall.
const minTableBins = 64

// InteractionTable is a built r²-indexed interaction table. It captures
// Cutoff, SwitchDist, and EwaldBeta from the Params it was built from;
// the tabulated kernels panic if handed a Params whose electrostatic
// mode or cutoff no longer matches (the engines rebuild the table after
// enabling PME, which swaps the Params via WithEwald).
type InteractionTable struct {
	Spacing     float64 // bin width h in x = r², Å²
	InvSpacing  float64 // 1/h
	HalfSpacing float64 // h/2 (energy-reconstruction factor)
	Bins        int     // bin count N; the grid spans [0, N·h] = [0, rc²]
	Cutoff2     float64 // rc², the table's upper edge
	EwaldBeta   float64 // β baked into TE (0 = shifted Coulomb)

	// C holds Bins+1 records of tabStride float64 each:
	// [Er, Dr, ΔDr, Ed, Dd, ΔDd, Ee, De, ΔDe, 0, 0, 0]. Record N is an
	// all-zero guard: the kernels clamp the bin index to N instead of
	// branching on the cutoff, so every beyond-cutoff pair reads the
	// guard and contributes exactly zero force and energy — the cutoff
	// test costs a conditional move, not a data-dependent branch.
	C []float64
}

// BuildInteractionTable precomputes the interaction table for the
// parameter set at the given bin spacing (in Å² of r²). A spacing of 0
// auto-derives cutoff²/DefaultTableBins. The spacing is snapped so an
// integer number of bins lands exactly on cutoff². The Params must have
// been Validated, and the table must be rebuilt if Cutoff, SwitchDist,
// or EwaldBeta change afterwards.
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

	// Sample the three components at every knot. Knot 0 uses the finite
	// inner point h/8 (see the package comment above); knot N uses
	// exactly rc² so the table's edge matches the kernels' cutoff test.
	type knot struct{ er, dr, ed, dd, ee, de float64 }
	knots := make([]knot, bins+1)
	for k := 0; k <= bins; k++ {
		x := h * float64(k)
		switch k {
		case 0:
			x = h / 8
		case bins:
			x = rc2
		}
		var kn knot
		kn.er, kn.dr, kn.ed, kn.dd, kn.ee, kn.de = p.tableComponents(x)
		knots[k] = kn
	}

	tab := &InteractionTable{
		Spacing:     h,
		InvSpacing:  1 / h,
		HalfSpacing: h / 2,
		Bins:        bins,
		Cutoff2:     rc2,
		EwaldBeta:   p.EwaldBeta,
		C:           make([]float64, (bins+1)*tabStride),
	}
	// Record N (the guard every clamped beyond-cutoff lookup reads)
	// stays all-zero: make's zero value is the coefficient set that
	// evaluates to exactly zero energy and force for any t.
	for i := 0; i < bins; i++ {
		k0, k1 := knots[i], knots[i+1]
		c := tab.C[i*tabStride:][:tabStride]
		c[0], c[1], c[2] = k0.er, k0.dr, k1.dr-k0.dr
		c[3], c[4], c[5] = k0.ed, k0.dd, k1.dd-k0.dd
		c[6], c[7], c[8] = k0.ee, k0.de, k1.de-k0.de
	}
	return tab, nil
}

// tableComponents evaluates the three interaction components and their
// x-derivatives at one sample point 0 < x ≤ rc². The expressions match
// the analytic kernels term for term (the electrostatic component is
// the shared helper with qq = 1), so the table converges on the analytic
// interaction as h → 0.
func (p *Params) tableComponents(x float64) (tr, dtr, td, dtd, te, dte float64) {
	rc2 := p.Cutoff * p.Cutoff
	rs2 := p.SwitchDist * p.SwitchDist
	invX := 1 / x
	invX3 := invX * invX * invX
	invX6 := invX3 * invX3
	tr, td = invX6, -invX3
	dtr, dtd = -6*invX6*invX, 3*invX3*invX
	if x > rs2 {
		denom := (rc2 - rs2) * (rc2 - rs2) * (rc2 - rs2)
		invDenom := 1 / denom
		d := rc2 - x
		sw := d * d * (rc2 - 3*rs2 + 2*x) * invDenom
		dswdx := d * (rs2 - x) * 6 * invDenom
		dtr, dtd = dtr*sw+tr*dswdx, dtd*sw+td*dswdx
		tr, td = tr*sw, td*sw
	}
	r := math.Sqrt(x)
	invR := r * invX
	if beta := p.EwaldBeta; beta > 0 {
		te, dte = elecEwaldReal(1, r, invR, invX, beta, beta/math.SqrtPi)
	} else {
		te, dte = elecShiftedCoulomb(1, invR, invX, x, 1/rc2)
	}
	return
}

// Eval evaluates the table for one pair with folded parameters A, B
// (combined LJ), qq (units.Coulomb·qi·qj, 1-4 scaled by the caller) at
// squared separation x. It performs exactly the arithmetic of the
// tabulated cluster kernel's inner loop — this is the readable
// specification the fuzz and sweep tests exercise — returning the vdW
// energy, electrostatic energy, and dE/dx (force on i = −2·dEdx·dr).
func (tab *InteractionTable) Eval(A, B, qq, x float64) (evdw, eelec, dEdx float64) {
	// Mirror the cluster kernels' domain contract exactly: the pair is
	// skipped at x == 0 and from the cutoff outward. Without the x ≥ rc²
	// early-out, x·InvSpacing can round a hair below the guard record at
	// x == rc² and extrapolate the last real bin to a nonzero value.
	if x == 0 || x >= tab.Cutoff2 {
		return 0, 0, 0
	}
	xs := x * tab.InvSpacing
	bin := int(xs)
	if bin > tab.Bins {
		bin = tab.Bins // beyond-cutoff clamp onto the zero guard record
	}
	t := xs - float64(bin)
	c := tab.C[bin*tabStride:][:tabStride]
	halfT := tab.HalfSpacing * t
	dr := c[1] + t*c[2]
	dd := c[4] + t*c[5]
	de := c[7] + t*c[8]
	dEdx = A*dr + B*dd + qq*de
	evdw = A*(c[0]+halfT*(c[1]+dr)) + B*(c[3]+halfT*(c[4]+dd))
	eelec = qq * (c[6] + halfT*(c[7]+de))
	return
}

// NonbondedTab is the scalar tabulated counterpart of Nonbonded: the
// same signature and parameter folding, with the interaction evaluated
// from the table instead of analytically. It exists for differential
// tests and the accuracy sweep; the engines call the cluster kernels.
func (p *Params) NonbondedTab(tab *InteractionTable, ti, tj int32, qi, qj, r2 float64, modified bool) (evdw, eelec, fOverR float64) {
	var pp pairParam
	qq := units.Coulomb * qi * qj
	if modified {
		pp = p.pair14[int(ti)*p.ntypes+int(tj)]
		qq *= p.Scale14Elec
	} else {
		pp = p.pair[int(ti)*p.ntypes+int(tj)]
	}
	evdw, eelec, dEdx := tab.Eval(pp.A, pp.B, qq, r2)
	return evdw, eelec, -2 * dEdx
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
