package forcefield

import (
	"math"

	"gonamd/internal/units"
)

// Nonbonded evaluates the nonbonded interaction between one atom pair.
//
//	ti, tj    atom types
//	qi, qj    charges (elementary charges)
//	r2        squared separation |ri - rj|² (minimum image), Å²
//	modified  true for 1-4 pairs (scaled parameters)
//
// It returns the van der Waals energy, the electrostatic energy, and
// fOverR such that the force on atom i is dr.Scale(fOverR) with
// dr = ri - rj. Pairs beyond the cutoff return all zeros.
//
// The van der Waals term is Lennard-Jones with NAMD's C1-continuous
// switching function active between SwitchDist and Cutoff; the
// electrostatic term is Coulomb with the (1 - r²/rc²)² shifting function,
// which brings both the potential and force smoothly to zero at the
// cutoff.
func (p *Params) Nonbonded(ti, tj int32, qi, qj, r2 float64, modified bool) (evdw, eelec, fOverR float64) {
	rc2 := p.Cutoff * p.Cutoff
	if r2 >= rc2 || r2 == 0 {
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

	// One division and one square root per pair: every other reciprocal
	// is a multiplication by a hoisted inverse or by invR = r·invX
	// (= 1/r, since x = r²). The cluster kernel uses the identical
	// expressions in the identical order so the two stay bitwise
	// interchangeable.
	x := r2 // work in x = r² to avoid sqrt where possible
	invX := 1 / x
	v, dvdx := ljPow(pp.A, pp.B, invX)
	lj := p.lj()
	evdw, dEdxVdw := lj.switched(x, v, dvdx)

	// Electrostatics: erfc-screened Ewald real-space term when EwaldBeta
	// is set, otherwise Coulomb with the (1 - x/rc²)² shifting function.
	r := math.Sqrt(x)
	invR := r * invX
	var dEdxElec float64
	if beta := p.EwaldBeta; beta > 0 {
		eelec, dEdxElec = elecEwaldReal(qq, r, invR, invX, beta, beta/math.SqrtPi)
	} else {
		eelec, dEdxElec = elecShiftedCoulomb(qq, invR, invX, x, 1/rc2)
	}

	fOverR = -2 * (dEdxVdw + dEdxElec)
	return evdw, eelec, fOverR
}

// ljSwitched is Lennard-Jones with NAMD's C1 switching function active
// between SwitchDist and Cutoff, its switch constants hoisted once per
// kernel call. ljPow and switched are the one shared definition of the
// van der Waals term that Nonbonded and both cluster kernels evaluate,
// so the tabulated kernel's van der Waals terms are bitwise the analytic
// kernel's (pinned by TestClusterTabVdWBitwiseAnalytic). It is two
// functions, not one, because together they exceed the compiler's
// inlining budget, and a call per pair costs the kernels more than the
// pair math it wraps.
type ljSwitched struct{ rs2, rc2, sw3, invDenom, invDenom6 float64 }

func (p *Params) lj() ljSwitched {
	rc2 := p.Cutoff * p.Cutoff
	rs2 := p.SwitchDist * p.SwitchDist
	invDenom := 1 / ((rc2 - rs2) * (rc2 - rs2) * (rc2 - rs2))
	return ljSwitched{rs2: rs2, rc2: rc2, sw3: rc2 - 3*rs2, invDenom: invDenom, invDenom6: 6 * invDenom}
}

// ljPow returns the unswitched LJ energy A/x⁶ − B/x³ and its derivative
// with respect to x = r², given invX = 1/x.
func ljPow(A, B, invX float64) (v, dvdx float64) {
	invX3 := invX * invX * invX
	a6 := A * invX3 * invX3
	b3 := B * invX3
	return a6 - b3, (3*b3 - 6*a6) * invX
}

// switched applies the switch to ljPow's (v, dvdx) at x, returning the
// van der Waals energy and its x-derivative. The switch is evaluated on
// every pair and selected arithmetically — sw = 1, dsw/dx = 0 up to the
// onset x ≤ rs² — instead of by an unpredictable branch; v·1 and
// dvdx·1 + v·0 are exact, so the result is bitwise the branchy form's
// (FuzzInteractionTable checks it against that form).
func (s *ljSwitched) switched(x, v, dvdx float64) (ev, dEdx float64) {
	d, e := s.rc2-x, s.rs2-x
	on := float64(math.Float64bits(e) >> 63) // 1 past the onset, else 0
	sw := d*d*(s.sw3+2*x)*s.invDenom*on + (1 - on)
	return v * sw, dvdx*sw + v*(d*e*s.invDenom6*on)
}

// elecEwaldReal is the erfc-screened Ewald real-space electrostatic term
// qq·erfc(βr)/r and its derivative with respect to x = r². It is the one
// shared definition of the expression the scalar and cluster kernels
// and the table builder all evaluate — hoisted so they cannot drift
// apart; the operations and their order are exactly the pre-hoist
// expressions, so every caller stays bitwise identical to its previous
// inline form (pinned by TestElecHelpersBitwiseIdentity). invSqrtPiBeta
// must be β/√π, computed once by the caller.
func elecEwaldReal(qq, r, invR, invX, beta, invSqrtPiBeta float64) (ee, dEdx float64) {
	br := beta * r
	erfc := math.Erfc(br)
	ee = qq * erfc * invR
	dEdx = -qq * (invSqrtPiBeta*math.Exp(-br*br)*invX + 0.5*erfc*invX*invR)
	return ee, dEdx
}

// elecShiftedCoulomb is the cutoff-electrostatics counterpart of
// elecEwaldReal: Coulomb with the (1 - x/rc²)² shifting function, again
// the single shared definition for all analytic kernels (same bitwise
// contract). invRc2 must be 1/rc², hoisted by the caller.
func elecShiftedCoulomb(qq, invR, invX, x, invRc2 float64) (ee, dEdx float64) {
	sh := 1 - x*invRc2
	qir := qq * invR
	shsh := sh * sh
	ee = qir * shsh
	dEdx = -qir * (0.5*shsh*invX + 2*sh*invRc2)
	return ee, dEdx
}

// NonbondedEnergy returns only the total energy of a pair (for tests and
// analysis code that does not need forces).
func (p *Params) NonbondedEnergy(ti, tj int32, qi, qj, r2 float64, modified bool) float64 {
	evdw, eelec, _ := p.Nonbonded(ti, tj, qi, qj, r2, modified)
	return evdw + eelec
}
