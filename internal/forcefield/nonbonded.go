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
	invX3 := invX * invX * invX
	a6 := pp.A * invX3 * invX3
	b3 := pp.B * invX3
	v := a6 - b3 // LJ energy before switching
	dvdx := (3*b3 - 6*a6) * invX

	rs2 := p.SwitchDist * p.SwitchDist
	var dEdxVdw float64
	if x <= rs2 {
		evdw = v
		dEdxVdw = dvdx
	} else {
		denom := (rc2 - rs2) * (rc2 - rs2) * (rc2 - rs2)
		invDenom := 1 / denom
		invDenom6 := 6 * invDenom
		sw3 := rc2 - 3*rs2
		d := rc2 - x
		sw := d * d * (sw3 + 2*x) * invDenom
		dswdx := d * (rs2 - x) * invDenom6
		evdw = v * sw
		dEdxVdw = dvdx*sw + v*dswdx
	}

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
