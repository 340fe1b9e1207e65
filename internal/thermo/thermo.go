// Package thermo provides temperature control (thermostats) for the
// molecular dynamics engines: plain velocity rescaling, the Berendsen
// weak-coupling thermostat, and a Langevin thermostat with a
// deterministic random stream. Thermostats mutate velocities only and
// are applied once per timestep after integration.
package thermo

import (
	"math"

	"gonamd/internal/topology"
	"gonamd/internal/units"
	"gonamd/internal/xrand"
)

// Kinetic returns the kinetic energy of a state in kcal/mol.
func Kinetic(sys *topology.System, st *topology.State) float64 {
	ke := 0.0
	for i, v := range st.Vel {
		ke += 0.5 * sys.Atoms[i].Mass * v.Norm2()
	}
	return ke / units.ForceToAccel
}

// Temperature returns the instantaneous temperature in K.
func Temperature(sys *topology.System, st *topology.State) float64 {
	return units.KineticToKelvin(Kinetic(sys, st), 3*sys.N())
}

// Thermostat adjusts velocities toward a target temperature. Apply is
// called once per step with the timestep in femtoseconds.
//
// State returns the words Apply carries from one step to the next,
// aliasing the thermostat's own storage: a checkpoint copies them out, a
// restore copies them back in, and the thermostat then continues exactly
// where the saved one would have. Nil for a thermostat without such
// state.
type Thermostat interface {
	Name() string
	Apply(sys *topology.System, st *topology.State, dt float64)
	State() []uint64
}

// Rescale hard-rescales velocities to exactly Target every Interval
// steps (Interval ≤ 1 means every step).
type Rescale struct {
	Target   float64 // K
	Interval int
	steps    [1]uint64 // Apply calls so far: the interval phase
}

// Name implements Thermostat.
func (r *Rescale) Name() string { return "rescale" }

// State implements Thermostat: the interval phase.
func (r *Rescale) State() []uint64 { return r.steps[:] }

// Apply implements Thermostat.
func (r *Rescale) Apply(sys *topology.System, st *topology.State, dt float64) {
	r.steps[0]++
	if r.Interval > 1 && r.steps[0]%uint64(r.Interval) != 0 {
		return
	}
	t := Temperature(sys, st)
	if t <= 0 {
		return
	}
	scale := math.Sqrt(r.Target / t)
	for i := range st.Vel {
		st.Vel[i] = st.Vel[i].Scale(scale)
	}
}

// Berendsen is the weak-coupling thermostat: velocities are scaled by
// λ = sqrt(1 + dt/τ · (T0/T − 1)) each step, relaxing the temperature
// exponentially with time constant Tau (fs).
type Berendsen struct {
	Target float64 // K
	Tau    float64 // fs
}

// Name implements Thermostat.
func (b *Berendsen) Name() string { return "berendsen" }

// State implements Thermostat: Berendsen carries nothing between steps.
func (b *Berendsen) State() []uint64 { return nil }

// Apply implements Thermostat.
func (b *Berendsen) Apply(sys *topology.System, st *topology.State, dt float64) {
	t := Temperature(sys, st)
	if t <= 0 {
		return
	}
	tau := b.Tau
	if tau < dt {
		tau = dt
	}
	lambda := math.Sqrt(1 + dt/tau*(b.Target/t-1))
	for i := range st.Vel {
		st.Vel[i] = st.Vel[i].Scale(lambda)
	}
}

// Langevin applies the BBK-style friction-plus-noise update
//
//	v ← c1·v + c2(m)·ξ,  c1 = exp(-γ dt),  c2 = sqrt((1-c1²)·kT/m)
//
// which samples the canonical distribution at Target in the
// infinite-time limit. Gamma is the friction in 1/fs (typical: 0.001-0.01
// for solvated biomolecules). The noise stream is deterministic per Seed.
type Langevin struct {
	Target float64 // K
	Gamma  float64 // 1/fs
	Seed   uint64
	rng    *xrand.RNG
}

// Name implements Thermostat.
func (l *Langevin) Name() string { return "langevin" }

// State implements Thermostat: the noise stream, started from Seed if
// it has not produced noise yet.
func (l *Langevin) State() []uint64 {
	l.ensureRNG()
	return l.rng.Words()
}

func (l *Langevin) ensureRNG() {
	if l.rng == nil {
		l.rng = xrand.New(l.Seed)
	}
}

// Apply implements Thermostat.
func (l *Langevin) Apply(sys *topology.System, st *topology.State, dt float64) {
	l.ensureRNG()
	c1 := math.Exp(-l.Gamma * dt)
	kT := units.Boltzmann * l.Target * units.ForceToAccel // in amu·Å²/fs²
	for i := range st.Vel {
		m := sys.Atoms[i].Mass
		c2 := math.Sqrt((1 - c1*c1) * kT / m)
		v := st.Vel[i].Scale(c1)
		v.X += c2 * l.rng.NormFloat64()
		v.Y += c2 * l.rng.NormFloat64()
		v.Z += c2 * l.rng.NormFloat64()
		st.Vel[i] = v
	}
}
