package par

import (
	"fmt"

	"gonamd/internal/pme"
	"gonamd/internal/trace"
	"gonamd/internal/units"
	"gonamd/internal/vec"
)

// poolAdapter exposes the engine's persistent worker pool through
// fft.Pool so the PME mesh phases (spread, FFT passes, convolution,
// gather) run on the same parked goroutines as the force evaluation. A
// job code ≥ 2·workers dispatches worker job-2·workers into the region
// function (codes below that are the compute and reduce phases — see
// workerLoop).
type poolAdapter struct{ e *Engine }

func (p poolAdapter) Workers() int { return p.e.workers }

func (p poolAdapter) Run(f func(w int)) {
	e := p.e
	e.poolOnce.Do(e.startPool)
	e.pmeFn = f
	e.wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		e.workCh <- 2*e.workers + w
	}
	e.wg.Wait()
	e.pmeFn = nil
}

// EnableFullElectrostatics switches the engine to smooth particle-mesh
// Ewald, exactly as the sequential engine's function of the same name:
// erfc real space from the interaction table in the cluster kernel, the
// reciprocal mesh sum every mtsPeriod steps as an impulse, with the mesh
// phases parallelized over the engine's worker pool. The reciprocal
// forces are bitwise identical to the sequential engine's for any worker
// count.
// Must be called before the first Step. This is the implementation
// behind gonamd.WithPME; it is a package function rather than a method
// so the configuration surface of the public Engine types stays
// construction-only.
func EnableFullElectrostatics(e *Engine, gridSpacing, beta float64, mtsPeriod int) error {
	if e.pme != nil {
		return fmt.Errorf("par: full electrostatics already enabled")
	}
	if mtsPeriod < 1 {
		return fmt.Errorf("par: MTS period %d must be ≥ 1", mtsPeriod)
	}
	recip, err := pme.NewRecip(e.Sys.Box, gridSpacing, beta)
	if err != nil {
		return err
	}
	q := make([]float64, e.Sys.N())
	for i := range q {
		q[i] = e.Sys.Atoms[i].Charge
	}
	// The cluster kernel follows the electrostatics: re-select it (and
	// build the interaction table) for the Ewald real-space term.
	ff := e.FF.WithEwald(beta)
	if e.clb.kernel, err = ff.ClusterKernel(); err != nil {
		return err
	}
	e.pme = pme.NewSolver(recip, q, e.FF.Scale14Elec, e.Sys, mtsPeriod)
	e.FF = ff
	e.fresh = false
	return nil
}

// PMEEnabled reports whether full electrostatics are active.
func (e *Engine) PMEEnabled() bool { return e.pme != nil }

// RecipEvals returns the number of reciprocal-space evaluations performed.
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

// evalRecip runs one reciprocal-space evaluation on the worker pool,
// timed as a "pme_recip" phase record when tracing is attached.
func (e *Engine) evalRecip() {
	t := e.phaseNow()
	e.pme.Evaluate(e.St.Pos, poolAdapter{e})
	e.phaseEmit("pme_recip", trace.CatPME, t)
}

// stepPME advances one step under the impulse MTS scheme; see the
// sequential engine's stepPME for the integrator structure. The fast
// force evaluation and the mesh phases both run on the worker pool.
func (e *Engine) stepPME(dt float64) {
	p := e.pme
	if !e.fresh {
		e.ComputeForces()
	}
	e.ensureRecip()
	pos, vel := e.St.Pos, e.St.Vel
	dtOuter := dt * float64(p.MTSPeriod)
	fr := p.Forces()

	t := e.phaseNow()
	if p.Counter == 0 {
		for i := range vel {
			a := fr[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
			vel[i] = vel[i].Add(a.Scale(0.5 * dtOuter))
		}
	}

	var maxV2 float64
	for i := range pos {
		a := e.forces[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
		vel[i] = vel[i].Add(a.Scale(0.5 * dt))
		if v2 := vel[i].Norm2(); v2 > maxV2 {
			maxV2 = v2
		}
		pos[i] = vec.Wrap(pos[i].Add(vel[i].Scale(dt)), e.Sys.Box)
	}
	e.advanceGuard(maxV2, dt)
	e.phaseEmit("integrate", trace.CatIntegration, t)
	e.ComputeForces()
	t = e.phaseNow()
	for i := range vel {
		a := e.forces[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
		vel[i] = vel[i].Add(a.Scale(0.5 * dt))
	}
	e.phaseEmit("integrate", trace.CatIntegration, t)

	p.Counter++
	if p.Counter == p.MTSPeriod {
		p.Counter = 0
		e.evalRecip()
		t = e.phaseNow()
		for i := range vel {
			a := fr[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
			vel[i] = vel[i].Add(a.Scale(0.5 * dtOuter))
		}
		e.phaseEmit("integrate", trace.CatIntegration, t)
	}
	if e.Thermo != nil {
		e.Thermo.Apply(e.Sys, e.St, dt)
	}
	e.steps++
	if e.RebalanceEvery > 0 && e.steps%e.RebalanceEvery == 0 {
		e.Rebalance()
	}
	e.markStep()
}
