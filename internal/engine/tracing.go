package engine

import (
	"gonamd/internal/topology"
	"gonamd/internal/trace"
)

// Tracing (Config.Trace): every force evaluation emits one compacted
// "nonbonded" and "bonded" record per worker (PE = worker, duration =
// that worker's summed task times, laid end to end from the phase start
// so spans sum exactly to the record duration) plus, on a multi-worker
// engine, a PE-0 "reduce" record of the reduction-phase wall time; Step
// adds "integrate" records ("pme_recip" too under PME) and a
// zero-duration "step" marker. Workers only accumulate floats — all
// records are emitted from the goroutine driving the step, so the
// recorder needs no locking. Without a log the hot path pays only nil
// checks, preserving the zero-allocation step.

// System returns the engine's topology.
func (e *Engine) System() *topology.System { return e.Sys }

// State returns the engine's mutable positions/velocities.
func (e *Engine) State() *topology.State { return e.St }

// Steps returns the number of steps completed.
func (e *Engine) Steps() int64 { return e.steps }

// phaseNow samples the recorder clock, or returns 0 with tracing off.
func (e *Engine) phaseNow() float64 {
	if e.tr.Enabled() {
		return e.tr.Now()
	}
	return 0
}

// phaseEmit records [start, now) under entry/cat on PE 0 and returns
// now, so consecutive phases chain without re-sampling the clock.
func (e *Engine) phaseEmit(entry string, cat trace.Category, start float64) float64 {
	if !e.tr.Enabled() {
		return 0
	}
	now := e.tr.Now()
	e.tr.Emit(entry, 0, 0, start, cat, now-start)
	return now
}

// emitComputePhase writes the per-worker compute-phase records: each
// worker's nonbonded and bonded busy time, packed [t0, t0+nb) then
// [t0+nb, t0+nb+b) on its own PE row. Per-worker busy never exceeds the
// phase wall time, so the packed records stay inside the real phase
// window and ahead of the reduction that follows.
func (e *Engine) emitComputePhase(t0 float64) {
	for w := 0; w < e.workers; w++ {
		ws := &e.wstates[w]
		e.tr.Emit("nonbonded", int32(w), int32(w), t0, trace.CatNonbonded, ws.nbT)
		e.tr.Emit("bonded", int32(w), int32(w), t0+ws.nbT, trace.CatBonded, ws.bT)
	}
}

// markStep emits the zero-duration step-completion marker carrying the
// step index, from which the analyzer derives the step-time series.
func (e *Engine) markStep() {
	if e.tr.Enabled() {
		e.tr.EmitMarker("step", 0, int32(e.steps), e.tr.Now())
	}
	if e.metrics != nil {
		e.publishMetrics()
	}
}
