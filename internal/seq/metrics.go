package seq

import (
	"gonamd/internal/ftdc"
	"gonamd/internal/trace"
)

// SetMetrics attaches an always-on telemetry recorder: after every
// completed step the engine publishes the FTDC engine vector (step
// count, per-phase busy seconds, rebuild count) into the recorder's
// slot array — a handful of atomic stores, no locks, no allocation.
// The per-phase times come from the trace recorder's accumulators; if
// no trace is attached, a timing-only recorder (bounded memory) is
// installed so phase timing works without a Projections log. Passing
// nil detaches metrics.
func (e *Engine) SetMetrics(rec *ftdc.Recorder) {
	e.metrics = rec
	if rec != nil && !e.tr.Enabled() {
		e.tr = trace.NewTimingRecorder()
	}
}

// Metrics returns the attached telemetry recorder, if any.
func (e *Engine) Metrics() *ftdc.Recorder { return e.metrics }

// publishMetrics pushes the current engine vector into the recorder
// slots. Called once per step from markStep; hot-path safe.
func (e *Engine) publishMetrics() {
	rec := e.metrics
	rec.StoreInt(ftdc.FieldSteps, e.steps)
	ph := e.tr.PhaseTotals()
	rec.Store(ftdc.FieldNonbondedSec, ph[trace.CatNonbonded])
	rec.Store(ftdc.FieldBondedSec, ph[trace.CatBonded])
	rec.Store(ftdc.FieldPMESec, ph[trace.CatPME])
	rec.Store(ftdc.FieldIntegrateSec, ph[trace.CatIntegration])
	rec.Store(ftdc.FieldCommSec, ph[trace.CatComm])
	rec.StoreInt(ftdc.FieldRebuilds, int64(e.ClusterRebuilds()))
	// Sequential engine: one PE, no imbalance by definition.
}
