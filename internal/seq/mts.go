package seq

import (
	"gonamd/internal/units"
	"gonamd/internal/vec"
)

// Multiple timestepping (impulse r-RESPA / Verlet-I), which the paper
// notes is combined with cutoff methods in production use: the cheap,
// fast-varying bonded forces are integrated with a small inner timestep
// while the expensive nonbonded forces are applied as impulses at the
// outer step boundaries, cutting the number of nonbonded evaluations by
// the split factor.

// computeSlowForces evaluates only the nonbonded forces into dst.
func (e *Engine) computeSlowForces(dst []vec.V3) Energies {
	saved := e.forces
	e.forces = dst
	for i := range e.forces {
		e.forces[i] = vec.Zero
	}
	var en Energies
	e.nonbonded(&en)
	e.forces = saved
	return en
}

// computeFastForces evaluates only the bonded forces into dst.
func (e *Engine) computeFastForces(dst []vec.V3) Energies {
	saved := e.forces
	e.forces = dst
	for i := range e.forces {
		e.forces[i] = vec.Zero
	}
	var en Energies
	e.bonded(&en)
	e.forces = saved
	return en
}

// MTS holds the state of a multiple-timestepping integrator bound to an
// engine.
type MTS struct {
	e          *Engine
	slow, fast []vec.V3
	slowEn     Energies
	fastEn     Energies
	primed     bool
	// SlowEvals counts nonbonded force evaluations (for verifying the
	// cost saving).
	SlowEvals int
}

// NewMTS prepares a multiple-timestepping integrator for the engine.
func NewMTS(e *Engine) *MTS {
	return &MTS{
		e:    e,
		slow: make([]vec.V3, e.Sys.N()),
		fast: make([]vec.V3, e.Sys.N()),
	}
}

// Step advances one outer step of k inner steps of dtFast femtoseconds
// each (outer step = k × dtFast) using the impulse scheme.
func (m *MTS) Step(dtFast float64, k int) {
	if k < 1 {
		panic("seq: MTS split factor must be ≥ 1")
	}
	e := m.e
	if !m.primed {
		m.slowEn = e.computeSlowForces(m.slow)
		m.fastEn = e.computeFastForces(m.fast)
		m.SlowEvals++
		m.primed = true
	}
	dtOuter := dtFast * float64(k)
	pos, vel := e.St.Pos, e.St.Vel

	// Outer half-kick with the slow (nonbonded) impulse.
	for i := range vel {
		a := m.slow[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
		vel[i] = vel[i].Add(a.Scale(0.5 * dtOuter))
	}
	// Inner velocity-Verlet loop with the fast (bonded) forces. Each
	// inner drift moves atoms by |v|·dtFast, which must advance the
	// list's drift bound before the slow-force evaluation below.
	for inner := 0; inner < k; inner++ {
		var maxV2 float64
		for i := range pos {
			a := m.fast[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
			vel[i] = vel[i].Add(a.Scale(0.5 * dtFast))
			if v2 := vel[i].Norm2(); v2 > maxV2 {
				maxV2 = v2
			}
			pos[i] = vec.Wrap(pos[i].Add(vel[i].Scale(dtFast)), e.Sys.Box)
		}
		e.advanceGuard(maxV2, dtFast)
		m.fastEn = e.computeFastForces(m.fast)
		for i := range vel {
			a := m.fast[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
			vel[i] = vel[i].Add(a.Scale(0.5 * dtFast))
		}
	}
	// New slow forces + outer half-kick.
	m.slowEn = e.computeSlowForces(m.slow)
	m.SlowEvals++
	for i := range vel {
		a := m.slow[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
		vel[i] = vel[i].Add(a.Scale(0.5 * dtOuter))
	}
	e.fresh = false // engine's combined forces are stale
	if e.Thermo != nil {
		e.Thermo.Apply(e.Sys, e.St, dtOuter)
	}
}

// Energies returns the current decomposed energies (slow + fast from the
// latest evaluations, plus kinetic).
func (m *MTS) Energies() Energies {
	en := m.fastEn
	en.VdW = m.slowEn.VdW
	en.Elec = m.slowEn.Elec
	en.Kinetic = m.e.Kinetic()
	return en
}
