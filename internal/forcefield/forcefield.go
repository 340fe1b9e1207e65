// Package forcefield implements CHARMM-style molecular mechanics
// interactions: Lennard-Jones van der Waals forces with a smooth switching
// function, shifted-cutoff Coulomb electrostatics, and harmonic/cosine
// bonded terms (bonds, angles, dihedrals, impropers). All energies are in
// kcal/mol, lengths in Å, forces in kcal/mol/Å.
package forcefield

import (
	"fmt"
	"math"
)

// AtomType holds per-type Lennard-Jones parameters. Pair parameters are
// produced by Lorentz–Berthelot combining rules.
type AtomType struct {
	Name    string
	Epsilon float64 // well depth, kcal/mol (positive)
	Sigma   float64 // LJ sigma, Å
	// Epsilon14/Sigma14 are the parameters used for modified 1-4 pairs.
	// Zero values mean "same as Epsilon/Sigma".
	Epsilon14 float64
	Sigma14   float64
}

// BondType is a harmonic bond: E = K (r - R0)².
type BondType struct {
	K  float64 // kcal/mol/Å²
	R0 float64 // Å
}

// AngleType is a harmonic angle: E = K (θ - Theta0)².
type AngleType struct {
	K      float64 // kcal/mol/rad²
	Theta0 float64 // radians
}

// DihedralType is a cosine torsion: E = K (1 + cos(n φ - Delta)).
type DihedralType struct {
	K     float64 // kcal/mol
	N     int     // multiplicity (≥ 1)
	Delta float64 // phase, radians
}

// ImproperType is a harmonic improper torsion: E = K (ψ - Psi0)².
type ImproperType struct {
	K    float64 // kcal/mol/rad²
	Psi0 float64 // radians
}

// Params is a complete force-field parameter set.
type Params struct {
	AtomTypes     []AtomType
	BondTypes     []BondType
	AngleTypes    []AngleType
	DihedralTypes []DihedralType
	ImproperTypes []ImproperType

	// Cutoff is the nonbonded cutoff radius; SwitchDist is where the vdW
	// switching function begins (SwitchDist < Cutoff).
	Cutoff     float64
	SwitchDist float64

	// Scale14Elec and Scale14VdW scale electrostatics and vdW for
	// modified 1-4 pairs (CHARMM uses 1.0; AMBER-style fields use
	// 1/1.2 and 1/2).
	Scale14Elec float64
	Scale14VdW  float64

	// EwaldBeta switches the electrostatic kernel from the shifted-cutoff
	// Coulomb form to the Ewald real-space term qq·erfc(βr)/r. Zero (the
	// default) keeps plain cutoff electrostatics; the engines set it via
	// WithEwald when full PME electrostatics are enabled, and the
	// reciprocal-space remainder is handled by internal/pme.
	EwaldBeta float64

	pair   []pairParam // combined LJ table, len = ntypes²
	pair14 []pairParam
	ntypes int
}

type pairParam struct {
	// LJ in the A/B form: E = A/r¹² − B/r⁶.
	A, B float64
}

// Validate checks the parameter set and precomputes combined pair tables.
// It must be called before kernel evaluation.
func (p *Params) Validate() error {
	if p.Cutoff <= 0 {
		return fmt.Errorf("forcefield: cutoff %g must be positive", p.Cutoff)
	}
	if p.SwitchDist <= 0 || p.SwitchDist >= p.Cutoff {
		return fmt.Errorf("forcefield: switchdist %g must be in (0, cutoff)", p.SwitchDist)
	}
	if p.Scale14Elec == 0 {
		p.Scale14Elec = 1
	}
	if p.Scale14VdW == 0 {
		p.Scale14VdW = 1
	}
	for i, at := range p.AtomTypes {
		if at.Epsilon < 0 || at.Sigma < 0 {
			return fmt.Errorf("forcefield: atom type %d (%s) has negative LJ parameters", i, at.Name)
		}
	}
	for i, bt := range p.BondTypes {
		if bt.K < 0 || bt.R0 <= 0 {
			return fmt.Errorf("forcefield: bond type %d invalid: %+v", i, bt)
		}
	}
	for i, at := range p.AngleTypes {
		if at.K < 0 || at.Theta0 <= 0 || at.Theta0 > math.Pi {
			return fmt.Errorf("forcefield: angle type %d invalid: %+v", i, at)
		}
	}
	for i, dt := range p.DihedralTypes {
		if dt.N < 1 {
			return fmt.Errorf("forcefield: dihedral type %d has multiplicity %d", i, dt.N)
		}
	}
	p.buildPairTables()
	return nil
}

func (p *Params) buildPairTables() {
	t := len(p.AtomTypes)
	p.ntypes = t
	p.pair = make([]pairParam, t*t)
	p.pair14 = make([]pairParam, t*t)
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			ti, tj := p.AtomTypes[i], p.AtomTypes[j]
			p.pair[i*t+j] = combine(ti.Epsilon, ti.Sigma, tj.Epsilon, tj.Sigma)

			ei, si := ti.Epsilon14, ti.Sigma14
			if ei == 0 && si == 0 {
				ei, si = ti.Epsilon, ti.Sigma
			}
			ej, sj := tj.Epsilon14, tj.Sigma14
			if ej == 0 && sj == 0 {
				ej, sj = tj.Epsilon, tj.Sigma
			}
			pp := combine(ei, si, ej, sj)
			pp.A *= p.Scale14VdW
			pp.B *= p.Scale14VdW
			p.pair14[i*t+j] = pp
		}
	}
}

// WithEwald returns a shallow copy of the parameter set whose
// electrostatics use the erfc-screened Ewald real-space kernel with the
// given splitting parameter β (Å⁻¹). The combined LJ pair tables are
// β-independent and shared with the receiver, so Validate must already
// have been called and the copy costs no table rebuild.
func (p *Params) WithEwald(beta float64) *Params {
	cp := *p
	cp.EwaldBeta = beta
	return &cp
}

func combine(e1, s1, e2, s2 float64) pairParam {
	eps := math.Sqrt(e1 * e2)
	sig := (s1 + s2) / 2
	s6 := sig * sig * sig * sig * sig * sig
	return pairParam{A: 4 * eps * s6 * s6, B: 4 * eps * s6}
}
