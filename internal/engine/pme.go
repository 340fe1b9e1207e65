package engine

import (
	"fmt"

	"gonamd/internal/forcefield"
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

// PMEConfig switches the engine from shifted-cutoff electrostatics to
// smooth particle-mesh Ewald: the pair kernels evaluate the
// erfc-screened real-space term inside the existing cutoff (from the
// interaction table on the cluster path, analytically in reference
// mode), and a reciprocal-space mesh sum (order-4 B-spline PME) plus
// self, background, and excluded-pair corrections supply the long-range
// remainder. The mesh phases are split over the engine's workers; the
// reciprocal forces are bitwise identical for any worker count.
type PMEConfig struct {
	// GridSpacing is the largest mesh spacing, Å per point.
	GridSpacing float64
	// Beta is the Ewald splitting parameter, Å⁻¹; 0 derives it from the
	// cutoff (3.12/cutoff, erfc(3.12) ≈ 1e-5 at the cutoff).
	Beta float64
	// MTSPeriod sets the multiple-timestepping split: the reciprocal sum
	// is evaluated once every MTSPeriod steps and applied as an impulse
	// (Step), 1 meaning every step.
	MTSPeriod int
}

func (c *PMEConfig) beta(ff *forcefield.Params) float64 {
	if c.Beta > 0 {
		return c.Beta
	}
	return 3.12 / ff.Cutoff
}

// enablePME builds the slow-force solver; e.FF already carries the Ewald
// splitting parameter.
func (e *Engine) enablePME(c *PMEConfig) error {
	if c.MTSPeriod < 1 {
		return fmt.Errorf("engine: MTS period %d must be ≥ 1", c.MTSPeriod)
	}
	recip, err := pme.NewRecip(e.Sys.Box, c.GridSpacing, e.FF.EwaldBeta)
	if err != nil {
		return err
	}
	q := make([]float64, e.Sys.N())
	for i := range q {
		q[i] = e.Sys.Atoms[i].Charge
	}
	e.pme = pme.NewSolver(recip, q, e.FF.Scale14Elec, e.Sys, c.MTSPeriod)
	return nil
}

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
