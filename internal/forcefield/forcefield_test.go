package forcefield

import (
	"math"
	"testing"

	"gonamd/internal/vec"
	"gonamd/internal/xrand"
)

func testParams(t *testing.T) *Params {
	t.Helper()
	return Standard(12.0)
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero cutoff", func(p *Params) { p.Cutoff = 0 }},
		{"switch beyond cutoff", func(p *Params) { p.SwitchDist = p.Cutoff + 1 }},
		{"negative epsilon", func(p *Params) { p.AtomTypes[0].Epsilon = -1 }},
		{"zero bond R0", func(p *Params) { p.BondTypes[0].R0 = 0 }},
		{"angle theta0 > pi", func(p *Params) { p.AngleTypes[0].Theta0 = 4 }},
		{"zero dihedral multiplicity", func(p *Params) { p.DihedralTypes[0].N = 0 }},
	}
	for _, c := range cases {
		p := Standard(12.0)
		c.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid params", c.name)
		}
	}
}

func TestNonbondedZeroBeyondCutoff(t *testing.T) {
	p := testParams(t)
	evdw, eelec, f := p.Nonbonded(TypeOW, TypeOW, -0.8, -0.8, p.Cutoff*p.Cutoff, false)
	if evdw != 0 || eelec != 0 || f != 0 {
		t.Errorf("interaction at cutoff not zero: %v %v %v", evdw, eelec, f)
	}
	evdw, eelec, f = p.Nonbonded(TypeOW, TypeOW, -0.8, -0.8, 400, false)
	if evdw != 0 || eelec != 0 || f != 0 {
		t.Errorf("interaction beyond cutoff not zero: %v %v %v", evdw, eelec, f)
	}
}

func TestNonbondedContinuityAtCutoff(t *testing.T) {
	p := testParams(t)
	// Energy just inside the cutoff must approach zero (both vdW
	// switching and electrostatic shifting vanish at rc).
	r := p.Cutoff - 1e-6
	evdw, eelec, fOverR := p.Nonbonded(TypeOW, TypeOW, -0.8, 0.4, r*r, false)
	if math.Abs(evdw) > 1e-8 {
		t.Errorf("vdW energy at cutoff⁻ = %v, want ≈ 0", evdw)
	}
	if math.Abs(eelec) > 1e-8 {
		t.Errorf("elec energy at cutoff⁻ = %v, want ≈ 0", eelec)
	}
	if math.Abs(fOverR*r) > 1e-5 {
		t.Errorf("force at cutoff⁻ = %v, want ≈ 0", fOverR*r)
	}
}

func TestNonbondedContinuityAtSwitchDist(t *testing.T) {
	p := testParams(t)
	// Energy and force must be continuous across SwitchDist.
	eps := 1e-7
	r1 := p.SwitchDist - eps
	r2 := p.SwitchDist + eps
	e1v, e1e, f1 := p.Nonbonded(TypeOW, TypeOW, -0.8, -0.8, r1*r1, false)
	e2v, e2e, f2 := p.Nonbonded(TypeOW, TypeOW, -0.8, -0.8, r2*r2, false)
	if math.Abs(e1v-e2v) > 1e-5 {
		t.Errorf("vdW energy discontinuous at switchdist: %v vs %v", e1v, e2v)
	}
	if math.Abs(e1e-e2e) > 1e-5 {
		t.Errorf("elec energy discontinuous at switchdist: %v vs %v", e1e, e2e)
	}
	if math.Abs(f1-f2) > 1e-4 {
		t.Errorf("force discontinuous at switchdist: %v vs %v", f1, f2)
	}
}

// numerical dE/dr via central differences of the pair energy.
func numericalPairForce(p *Params, ti, tj int32, qi, qj, r float64, modified bool) float64 {
	h := 1e-6
	e1 := p.NonbondedEnergy(ti, tj, qi, qj, (r-h)*(r-h), modified)
	e2 := p.NonbondedEnergy(ti, tj, qi, qj, (r+h)*(r+h), modified)
	return -(e2 - e1) / (2 * h) // force magnitude along r̂ (positive = repulsive)
}

// TestNonbondedForceMatchesEnergyGradient covers both electrostatic
// modes: shifted-cutoff Coulomb and the Ewald real-space erfc term.
func TestNonbondedForceMatchesEnergyGradient(t *testing.T) {
	for _, p := range []*Params{testParams(t), testParams(t).WithEwald(0.32)} {
		rng := xrand.New(1)
		for trial := 0; trial < 300; trial++ {
			r := rng.Range(2.0, p.Cutoff-1e-3)
			ti := int32(rng.Intn(NumTypes))
			tj := int32(rng.Intn(NumTypes))
			qi := rng.Range(-1, 1)
			qj := rng.Range(-1, 1)
			modified := rng.Intn(2) == 0
			_, _, fOverR := p.Nonbonded(ti, tj, qi, qj, r*r, modified)
			analytic := fOverR * r // radial force component on i along r̂
			numeric := numericalPairForce(p, ti, tj, qi, qj, r, modified)
			tol := 1e-4 * (1 + math.Abs(numeric))
			if math.Abs(analytic-numeric) > tol {
				t.Fatalf("beta=%g trial %d: r=%.4f ti=%d tj=%d mod=%v: analytic force %v != numeric %v",
					p.EwaldBeta, trial, r, ti, tj, modified, analytic, numeric)
			}
		}
	}
}

// TestWithEwaldSharesTables checks the shallow copy: the clone flips only
// EwaldBeta and reuses the validated pair tables, and the receiver keeps
// plain cutoff electrostatics.
func TestWithEwaldSharesTables(t *testing.T) {
	p := Standard(10.0)
	e := p.WithEwald(0.3)
	if p.EwaldBeta != 0 {
		t.Fatal("WithEwald mutated the receiver")
	}
	if e.EwaldBeta != 0.3 || e.ntypes != p.ntypes || &e.pair[0] != &p.pair[0] {
		t.Fatal("WithEwald clone does not share validated pair tables")
	}
	// Same vdW, different electrostatics.
	ev1, ee1, _ := p.Nonbonded(TypeOW, TypeOW, -0.8, -0.8, 9.0, false)
	ev2, ee2, _ := e.Nonbonded(TypeOW, TypeOW, -0.8, -0.8, 9.0, false)
	if ev1 != ev2 {
		t.Fatalf("vdW changed under WithEwald: %g vs %g", ev1, ev2)
	}
	if ee1 == ee2 {
		t.Fatal("electrostatics identical despite Ewald screening")
	}
}

func TestModified14Scaling(t *testing.T) {
	p := Standard(12.0)
	p.Scale14Elec = 0.5
	p.Scale14VdW = 0.25
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	r := 4.0
	evdwN, eelecN, _ := p.Nonbonded(TypeC, TypeC, 0.5, 0.5, r*r, false)
	evdwM, eelecM, _ := p.Nonbonded(TypeC, TypeC, 0.5, 0.5, r*r, true)
	if math.Abs(evdwM-0.25*evdwN) > 1e-12*math.Abs(evdwN) {
		t.Errorf("1-4 vdW scaling: %v, want %v", evdwM, 0.25*evdwN)
	}
	if math.Abs(eelecM-0.5*eelecN) > 1e-12*math.Abs(eelecN) {
		t.Errorf("1-4 elec scaling: %v, want %v", eelecM, 0.5*eelecN)
	}
}

func TestLJMinimumLocation(t *testing.T) {
	// For pure LJ (no charge) the minimum of 4ε[(σ/r)¹²-(σ/r)⁶] is at
	// r = 2^(1/6) σ, where the force is zero.
	p := testParams(t)
	sigma := p.AtomTypes[TypeC].Sigma
	rmin := math.Pow(2, 1.0/6) * sigma
	_, _, fOverR := p.Nonbonded(TypeC, TypeC, 0, 0, rmin*rmin, false)
	if math.Abs(fOverR*rmin) > 1e-10 {
		t.Errorf("LJ force at minimum = %v, want 0", fOverR*rmin)
	}
	// Repulsive inside the minimum, attractive outside.
	_, _, fIn := p.Nonbonded(TypeC, TypeC, 0, 0, (rmin*0.9)*(rmin*0.9), false)
	if fIn <= 0 {
		t.Errorf("LJ inside minimum not repulsive: %v", fIn)
	}
	_, _, fOut := p.Nonbonded(TypeC, TypeC, 0, 0, (rmin*1.2)*(rmin*1.2), false)
	if fOut >= 0 {
		t.Errorf("LJ outside minimum not attractive: %v", fOut)
	}
}

func TestCoulombSign(t *testing.T) {
	p := testParams(t)
	// Like charges repel (positive energy, positive radial force).
	_, e, f := p.Nonbonded(TypeH, TypeH, 0.5, 0.5, 25, false)
	if e <= 0 || f <= 0 {
		t.Errorf("like charges: e=%v f=%v, want both positive", e, f)
	}
	// Opposite charges attract.
	_, e, f = p.Nonbonded(TypeH, TypeH, 0.5, -0.5, 25, false)
	if e >= 0 || f >= 0 {
		t.Errorf("opposite charges: e=%v f=%v, want both negative", e, f)
	}
}

func TestBondForce(t *testing.T) {
	p := testParams(t)
	box := vec.New(100, 100, 100)
	bt := p.BondTypes[BondCC]
	// At equilibrium length, zero force and energy.
	ri := vec.New(10, 10, 10)
	rj := vec.New(10+bt.R0, 10, 10)
	fi, fj, e := p.BondForce(BondCC, ri, rj, box)
	if e > 1e-12 || fi.Norm() > 1e-9 || fj.Norm() > 1e-9 {
		t.Errorf("bond at equilibrium: e=%v fi=%v", e, fi)
	}
	// Stretched bond pulls atoms together; forces opposite (Newton 3).
	rj = vec.New(10+bt.R0+0.5, 10, 10)
	fi, fj, e = p.BondForce(BondCC, ri, rj, box)
	if e <= 0 {
		t.Errorf("stretched bond energy = %v", e)
	}
	if fi.X <= 0 {
		t.Errorf("stretched bond should pull i toward j: fi=%v", fi)
	}
	if !vec.ApproxEq(fi, fj.Neg(), 1e-12) {
		t.Errorf("bond forces not equal and opposite: %v %v", fi, fj)
	}
}

func TestBondAcrossPeriodicBoundary(t *testing.T) {
	p := testParams(t)
	box := vec.New(20, 20, 20)
	bt := p.BondTypes[BondCC]
	// Atoms on opposite edges: true separation through boundary is R0.
	ri := vec.New(0.2, 5, 5)
	rj := vec.New(20-(bt.R0-0.2), 5, 5)
	_, _, e := p.BondForce(BondCC, ri, rj, box)
	if e > 1e-10 {
		t.Errorf("periodic bond energy = %v, want ≈ 0", e)
	}
}

// numGrad computes the numerical gradient of energy() with respect to the
// position of atom a, displacing component by component.
func numGrad(pos []vec.V3, a int, energy func([]vec.V3) float64) vec.V3 {
	h := 1e-6
	var g vec.V3
	for c := 0; c < 3; c++ {
		orig := pos[a]
		pos[a] = orig.SetComp(c, orig.Comp(c)+h)
		ep := energy(pos)
		pos[a] = orig.SetComp(c, orig.Comp(c)-h)
		em := energy(pos)
		pos[a] = orig
		g = g.SetComp(c, (ep-em)/(2*h))
	}
	return g
}

func randomPos(rng *xrand.RNG, n int) []vec.V3 {
	pos := make([]vec.V3, n)
	for i := range pos {
		pos[i] = vec.New(rng.Range(8, 14), rng.Range(8, 14), rng.Range(8, 14))
	}
	return pos
}

func TestAngleForceMatchesGradient(t *testing.T) {
	p := testParams(t)
	box := vec.New(100, 100, 100)
	rng := xrand.New(2)
	checked := 0
	for trial := 0; trial < 200 && checked < 100; trial++ {
		pos := randomPos(rng, 3)
		// Skip near-degenerate geometries.
		a := pos[0].Sub(pos[1])
		b := pos[2].Sub(pos[1])
		if a.Norm() < 0.5 || b.Norm() < 0.5 {
			continue
		}
		cosT := a.Dot(b) / (a.Norm() * b.Norm())
		if math.Abs(cosT) > 0.98 {
			continue
		}
		checked++
		typ := int32(trial % NumAngleTypes)
		energy := func(ps []vec.V3) float64 {
			_, _, _, e := p.AngleForce(typ, ps[0], ps[1], ps[2], box)
			return e
		}
		fi, fj, fk, _ := p.AngleForce(typ, pos[0], pos[1], pos[2], box)
		forces := []vec.V3{fi, fj, fk}
		for atom := 0; atom < 3; atom++ {
			want := numGrad(pos, atom, energy).Neg()
			if !vec.ApproxEq(forces[atom], want, 1e-4*(1+want.Norm())) {
				t.Fatalf("trial %d angle force on atom %d = %v, numeric %v", trial, atom, forces[atom], want)
			}
		}
		// Forces sum to zero.
		sum := fi.Add(fj).Add(fk)
		if sum.Norm() > 1e-10 {
			t.Fatalf("angle forces do not sum to zero: %v", sum)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d usable geometries", checked)
	}
}

func TestDihedralForceMatchesGradient(t *testing.T) {
	p := testParams(t)
	box := vec.New(100, 100, 100)
	rng := xrand.New(3)
	checked := 0
	for trial := 0; trial < 400 && checked < 100; trial++ {
		pos := randomPos(rng, 4)
		g := dihedral(pos[0], pos[1], pos[2], pos[3], box)
		if g.degenerate || g.n1sq < 0.1 || g.n2sq < 0.1 {
			continue
		}
		checked++
		typ := int32(trial % NumDihedralTypes)
		energy := func(ps []vec.V3) float64 {
			_, _, _, _, e := p.DihedralForce(typ, ps[0], ps[1], ps[2], ps[3], box)
			return e
		}
		fi, fj, fk, fl, _ := p.DihedralForce(typ, pos[0], pos[1], pos[2], pos[3], box)
		forces := []vec.V3{fi, fj, fk, fl}
		for atom := 0; atom < 4; atom++ {
			want := numGrad(pos, atom, energy).Neg()
			if !vec.ApproxEq(forces[atom], want, 1e-4*(1+want.Norm())) {
				t.Fatalf("trial %d dihedral force on atom %d = %v, numeric %v", trial, atom, forces[atom], want)
			}
		}
		sum := fi.Add(fj).Add(fk).Add(fl)
		if sum.Norm() > 1e-10 {
			t.Fatalf("dihedral forces do not sum to zero: %v", sum)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d usable geometries", checked)
	}
}

func TestImproperForceMatchesGradient(t *testing.T) {
	p := testParams(t)
	box := vec.New(100, 100, 100)
	rng := xrand.New(4)
	checked := 0
	for trial := 0; trial < 400 && checked < 100; trial++ {
		pos := randomPos(rng, 4)
		g := dihedral(pos[0], pos[1], pos[2], pos[3], box)
		// Stay away from the ±π wrap where the harmonic improper's
		// energy is non-smooth.
		if g.degenerate || g.n1sq < 0.1 || g.n2sq < 0.1 || math.Abs(g.phi) > 2.8 {
			continue
		}
		checked++
		energy := func(ps []vec.V3) float64 {
			_, _, _, _, e := p.ImproperForce(ImproperPlanar, ps[0], ps[1], ps[2], ps[3], box)
			return e
		}
		fi, fj, fk, fl, _ := p.ImproperForce(ImproperPlanar, pos[0], pos[1], pos[2], pos[3], box)
		forces := []vec.V3{fi, fj, fk, fl}
		for atom := 0; atom < 4; atom++ {
			want := numGrad(pos, atom, energy).Neg()
			if !vec.ApproxEq(forces[atom], want, 1e-4*(1+want.Norm())) {
				t.Fatalf("trial %d improper force on atom %d = %v, numeric %v", trial, atom, forces[atom], want)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d usable geometries", checked)
	}
}

func TestDihedralAngleValues(t *testing.T) {
	box := vec.New(100, 100, 100)
	// Construct a known trans (φ = π) configuration.
	ri := vec.New(0, 1, 0)
	rj := vec.New(0, 0, 0)
	rk := vec.New(1, 0, 0)
	rl := vec.New(1, -1, 0)
	g := dihedral(ri, rj, rk, rl, box)
	if math.Abs(math.Abs(g.phi)-math.Pi) > 1e-12 {
		t.Errorf("trans dihedral = %v, want ±π", g.phi)
	}
	// Cis (φ = 0).
	rl = vec.New(1, 1, 0)
	g = dihedral(ri, rj, rk, rl, box)
	if math.Abs(g.phi) > 1e-12 {
		t.Errorf("cis dihedral = %v, want 0", g.phi)
	}
	// +90°.
	rl = vec.New(1, 0, 1)
	g = dihedral(ri, rj, rk, rl, box)
	if math.Abs(math.Abs(g.phi)-math.Pi/2) > 1e-12 {
		t.Errorf("perpendicular dihedral = %v, want ±π/2", g.phi)
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi / 2, -math.Pi / 2},
		{2 * math.Pi, 0},
		{-5 * math.Pi / 2, -math.Pi / 2},
	}
	for _, c := range cases {
		if got := wrapAngle(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("wrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCombiningRules(t *testing.T) {
	pp := combine(0.1, 3.0, 0.4, 4.0)
	eps := math.Sqrt(0.1 * 0.4)
	sig := 3.5
	s6 := math.Pow(sig, 6)
	if math.Abs(pp.A-4*eps*s6*s6) > 1e-9 || math.Abs(pp.B-4*eps*s6) > 1e-12 {
		t.Errorf("combine = %+v", pp)
	}
}

func TestAngleDegenerateGeometryIsFinite(t *testing.T) {
	p := testParams(t)
	box := vec.New(100, 100, 100)
	// Perfectly collinear atoms: force must be zero, not NaN/Inf.
	fi, fj, fk, e := p.AngleForce(AngleCCC, vec.New(1, 0, 0), vec.New(2, 0, 0), vec.New(3, 0, 0), box)
	for _, f := range []vec.V3{fi, fj, fk} {
		if math.IsNaN(f.Norm()) || math.IsInf(f.Norm(), 0) {
			t.Fatalf("degenerate angle produced non-finite force %v", f)
		}
	}
	if math.IsNaN(e) {
		t.Fatal("degenerate angle produced NaN energy")
	}
}

func TestDihedralDegenerateGeometryIsFinite(t *testing.T) {
	p := testParams(t)
	box := vec.New(100, 100, 100)
	// Collinear i-j-k makes n1 = 0.
	fi, _, _, _, e := p.DihedralForce(DihedralBackbone,
		vec.New(1, 0, 0), vec.New(2, 0, 0), vec.New(3, 0, 0), vec.New(3, 1, 0), box)
	if math.IsNaN(fi.Norm()) || math.IsNaN(e) {
		t.Fatal("degenerate dihedral produced NaN")
	}
}
