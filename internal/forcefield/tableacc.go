package forcefield

import "math"

// TableForceError builds an interaction table at the given spacing and
// measures it against the analytic interaction over x ∈ [xMin, rc²) for
// a water-oxygen probe pair (LJ + charge): the maximum force and energy
// error of the whole pair relative to the pair's force and energy scale
// over the domain, and the maximum error of the tabulated electrostatic
// derivative dT/dx relative to the analytic one at the same x — the
// table's own accuracy, which the whole-pair columns dilute with the
// analytic LJ wall. Local relative error suits the Ewald term, whose
// derivative never vanishes; the shifted-Coulomb one vanishes at the
// cutoff. Shared by the accuracy sweep test and cmd/tableacc.
func TableForceError(p *Params, spacing, xMin float64) (forceErr, energyErr, elecErr float64) {
	tab, err := p.BuildInteractionTable(spacing)
	if err != nil {
		return math.Inf(1), math.Inf(1), math.Inf(1)
	}
	const ti, tj, qi, qj = TypeOW, TypeOW, -0.834, -0.834
	rc2 := p.Cutoff * p.Cutoff
	fScale, eScale := 0.0, 0.0
	for x := xMin; x < rc2; x += 0.003 {
		ev, ee, f := p.Nonbonded(ti, tj, qi, qj, x, false)
		fScale = max(fScale, math.Abs(f)*math.Sqrt(x))
		eScale = max(eScale, math.Abs(ev+ee))
	}
	for x := xMin; x < rc2; x += 0.003 {
		evA, eeA, fA := p.Nonbonded(ti, tj, qi, qj, x, false)
		evT, eeT, fT := p.NonbondedTab(tab, ti, tj, qi, qj, x, false)
		forceErr = max(forceErr, math.Abs(fT-fA)*math.Sqrt(x)/fScale)
		energyErr = max(energyErr, math.Abs((evT+eeT)-(evA+eeA))/eScale)
		_, dA := p.tableElec(x)
		_, dT := tab.Eval(1, x)
		elecErr = max(elecErr, math.Abs(dT-dA)/math.Abs(dA))
	}
	return forceErr, energyErr, elecErr
}
