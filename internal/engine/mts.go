package engine

import (
	"gonamd/internal/seq"
	"gonamd/internal/vec"
)

// Multiple timestepping (impulse r-RESPA / Verlet-I), which the paper
// notes is combined with cutoff methods in production use: the cheap,
// fast-varying bonded forces are integrated with a small inner timestep
// while the expensive nonbonded forces are applied as impulses at the
// outer step boundaries, cutting the number of nonbonded evaluations by
// the split factor. The two halves are the engine's own compute phase
// restricted to the bonded or the nonbonded tasks.

// MTS holds the state of a multiple-timestepping integrator bound to an
// engine.
type MTS struct {
	e          *Engine
	slow, fast []vec.V3
	slowEn     seq.Energies
	fastEn     seq.Energies
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

// evalSlow refreshes the nonbonded forces, evalFast the bonded ones.
func (m *MTS) evalSlow() {
	m.slowEn = m.e.evaluate(nonbondedTasks)
	copy(m.slow, m.e.forces)
	m.SlowEvals++
}

func (m *MTS) evalFast() {
	m.fastEn = m.e.evaluate(bondedTasks)
	copy(m.fast, m.e.forces)
}

// Step advances one outer step of k inner steps of dtFast femtoseconds
// each (outer step = k × dtFast) using the impulse scheme.
func (m *MTS) Step(dtFast float64, k int) {
	if k < 1 {
		panic("engine: MTS split factor must be ≥ 1")
	}
	e := m.e
	if !m.primed {
		m.evalSlow()
		m.evalFast()
		m.primed = true
	}
	dtOuter := dtFast * float64(k)

	// Outer half-kick with the slow (nonbonded) impulse.
	e.kick(m.slow, 0.5*dtOuter)
	// Inner velocity-Verlet loop with the fast (bonded) forces. Each
	// inner drift advances the list's drift bound before the slow-force
	// evaluation below.
	for inner := 0; inner < k; inner++ {
		e.kickDrift(m.fast, dtFast)
		m.evalFast()
		e.kick(m.fast, 0.5*dtFast)
	}
	// New slow forces + outer half-kick.
	m.evalSlow()
	e.kick(m.slow, 0.5*dtOuter)
	if e.Thermo != nil {
		e.Thermo.Apply(e.Sys, e.St, dtOuter)
	}
}

// Energies returns the current decomposed energies (slow + fast from the
// latest evaluations, plus kinetic).
func (m *MTS) Energies() seq.Energies {
	en := m.fastEn
	en.VdW = m.slowEn.VdW
	en.Elec = m.slowEn.Elec
	en.Kinetic = m.e.Kinetic()
	return en
}
