package engine

import (
	"fmt"

	"gonamd/internal/pme"
	"gonamd/internal/trace"
	"gonamd/internal/vec"
)

// poolAdapter exposes a multi-worker engine's persistent pool through
// fft.Pool so the PME mesh phases (spread, FFT passes, convolution,
// gather) run on the same parked goroutines as the force evaluation. A
// job code ≥ 2·workers dispatches worker job-2·workers into the region
// function (codes below that are the compute and reduce phases — see
// workerLoop). A one-worker engine runs them on fft.Serial instead.
type poolAdapter struct{ e *Engine }

func (p poolAdapter) Workers() int { return p.e.workers }

func (p poolAdapter) Run(f func(w int)) {
	e := p.e
	e.pmeFn = f
	e.runPool(2 * e.workers)
	e.pmeFn = nil
}

// EnableFullElectrostatics switches the engine from shifted-cutoff
// electrostatics to smooth particle-mesh Ewald: the pair kernels evaluate
// the erfc-screened real-space term inside the existing cutoff (from the
// interaction table on the cluster path, analytically in reference
// mode), and a reciprocal-space mesh sum (order-4 B-spline PME on a grid
// of at most gridSpacing Å per point) plus self, background, and
// excluded-pair corrections supply the long-range remainder. mtsPeriod
// sets the multiple-timestepping split: the reciprocal sum is evaluated
// once every mtsPeriod steps and applied as an impulse
// (Verlet-I/r-RESPA), 1 meaning every step. The mesh phases are split
// over the engine's workers; the reciprocal forces are bitwise identical
// for any worker count.
// Must be called before the first Step. This is the implementation
// behind gonamd.WithPME; it is a package function rather than a method
// so the configuration surface of the public Engine type stays
// construction-only.
func EnableFullElectrostatics(e *Engine, gridSpacing, beta float64, mtsPeriod int) error {
	if e.pme != nil {
		return fmt.Errorf("engine: full electrostatics already enabled")
	}
	if mtsPeriod < 1 {
		return fmt.Errorf("engine: MTS period %d must be ≥ 1", mtsPeriod)
	}
	recip, err := pme.NewRecip(e.Sys.Box, gridSpacing, beta)
	if err != nil {
		return err
	}
	q := make([]float64, e.Sys.N())
	for i := range q {
		q[i] = e.Sys.Atoms[i].Charge
	}
	ff := e.FF.WithEwald(beta)
	if e.clb != nil {
		// The cluster kernel follows the electrostatics: re-select it (and
		// build the interaction table) for the Ewald real-space term.
		if e.clb.kernel, err = ff.ClusterKernel(); err != nil {
			return err
		}
	}
	e.pme = pme.NewSolver(recip, q, e.FF.Scale14Elec, e.Sys, mtsPeriod)
	e.FF = ff
	e.fresh = false
	return nil
}

// PMEEnabled reports whether full electrostatics are active.
func (e *Engine) PMEEnabled() bool { return e.pme != nil }

// RecipEvals returns the number of reciprocal-space evaluations performed,
// for verifying the MTS saving.
func (e *Engine) RecipEvals() int {
	if e.pme == nil {
		return 0
	}
	return e.pme.Evals
}

// RecipForces returns the slow (reciprocal + correction) force array from
// the last reciprocal evaluation. The slice is owned by the engine.
func (e *Engine) RecipForces() []vec.V3 {
	if e.pme == nil {
		return nil
	}
	e.ensureRecip()
	return e.pme.Forces()
}

func (e *Engine) ensureRecip() {
	if !e.pme.Primed {
		e.evalRecip()
	}
}

// evalRecip runs one reciprocal-space evaluation on the workers, timed
// as a "pme_recip" phase record when tracing is attached.
func (e *Engine) evalRecip() {
	t := e.phaseNow()
	e.pme.Evaluate(e.St.Pos, e.mesh)
	e.phaseEmit("pme_recip", trace.CatPME, t)
}

// stepPME advances one step with full electrostatics under the impulse
// MTS scheme: the slow reciprocal force kicks velocities by ½·k·dt at
// cycle boundaries (one reciprocal evaluation per k steps), while the
// fast forces — real-space erfc nonbonded plus bonded — integrate with
// plain velocity Verlet every step. With k = 1 this reduces exactly to
// velocity Verlet on the combined force.
func (e *Engine) stepPME(dt float64) {
	p := e.pme
	e.ensureForces()
	e.ensureRecip()
	dtOuter := dt * float64(p.MTSPeriod)
	fr := p.Forces()

	// Outer half-kick with the reciprocal impulse at the cycle start.
	t := e.phaseNow()
	if p.Counter == 0 {
		e.kick(fr, 0.5*dtOuter)
	}

	// Inner velocity-Verlet step with the fast forces.
	e.kickDrift(e.forces, dt)
	e.phaseEmit("integrate", trace.CatIntegration, t)
	e.ComputeForces()
	t = e.phaseNow()
	e.kick(e.forces, 0.5*dt)
	e.phaseEmit("integrate", trace.CatIntegration, t)

	// Cycle end: fresh reciprocal forces and the closing outer half-kick.
	p.Counter++
	if p.Counter == p.MTSPeriod {
		p.Counter = 0
		e.evalRecip()
		t = e.phaseNow()
		e.kick(fr, 0.5*dtOuter)
		e.phaseEmit("integrate", trace.CatIntegration, t)
	}
	if e.Thermo != nil {
		e.Thermo.Apply(e.Sys, e.St, dt)
	}
	e.finishStep()
}
