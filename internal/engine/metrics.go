package engine

import (
	"gonamd/internal/ftdc"
	"gonamd/internal/trace"
)

// Metrics returns the attached telemetry recorder, if any.
func (e *Engine) Metrics() *ftdc.Recorder { return e.metrics }

// publishMetrics pushes the current engine vector into the recorder
// slots. Called once per step from markStep; hot-path safe — the
// imbalance gauge is computed inline from the per-worker accumulators
// (WorkerLoads allocates, so it stays off this path).
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
	var sum, max float64
	for w := range e.wstates {
		load := e.wstates[w].nbT + e.wstates[w].bT
		sum += load
		if load > max {
			max = load
		}
	}
	imb := 0.0
	if mean := sum / float64(len(e.wstates)); mean > 0 {
		imb = max/mean - 1
	}
	rec.Store(ftdc.FieldImbalance, imb)
}
