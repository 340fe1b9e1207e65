package engine

import (
	"fmt"
	"slices"

	"gonamd/internal/ckpt"
)

// Snapshot returns the engine's whole dynamic state, deep-copied: step
// count, positions and velocities, the cluster list's anchor, the PME
// MTS phase with the cycle's reciprocal forces, the thermostat's state,
// and the task → worker assignment. It first evaluates whatever forces
// the next Step would evaluate first (none after a Step), so a snapshot
// always carries a built list and primed reciprocal forces.
func (e *Engine) Snapshot() *ckpt.EngineState {
	e.ensureForces()
	s := &ckpt.EngineState{
		Step:     e.steps,
		Pos:      slices.Clone(e.St.Pos),
		Vel:      slices.Clone(e.St.Vel),
		Assign:   slices.Clone(e.assign),
		Balances: e.balances,
	}
	if e.clb != nil {
		s.Anchor = slices.Clone(e.clb.guard.Anchor())
	}
	if p := e.pme; p != nil {
		e.ensureRecip()
		s.Counter, s.RecipF = p.Counter, slices.Clone(p.Forces())
		s.SlowEnergy, s.SlowVirial = p.SlowEnergy, p.SlowVirial
	}
	if th := e.thermostat; th != nil {
		s.Thermostat, s.Thermo = th.Name(), slices.Clone(th.State())
	}
	return s
}

// Restore replaces the engine's dynamic state with a snapshot taken from
// an engine constructed the same way; the next steps are then bitwise
// those the snapshotted engine would have taken (at a fixed assignment:
// a rebalancing pass reads measured times, which are not state). The
// list is rebuilt at the anchor, which the deterministic builder turns
// into the identical list; its drift bound, only a cache of the validity
// scan, is left unknown. Forces are recomputed at the restored positions
// by the next step. A snapshot that does not fit the engine — atom or
// task count, anchor, worker, MTS phase or thermostat — is an error, and
// leaves the engine as it was.
func (e *Engine) Restore(s *ckpt.EngineState) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if n := e.Sys.N(); len(s.Pos) != n {
		return fmt.Errorf("engine: snapshot has %d atoms, the system %d", len(s.Pos), n)
	}
	if e.clb != nil && len(s.Anchor) == 0 {
		return fmt.Errorf("engine: snapshot has no list anchor; the engine runs cluster lists")
	} else if e.clb == nil && len(s.Anchor) > 0 {
		return fmt.Errorf("engine: snapshot has a list anchor; the engine runs the list-free reference mode")
	}
	if len(s.Assign) != len(e.tasks) {
		return fmt.Errorf("engine: snapshot assigns %d tasks, the engine has %d", len(s.Assign), len(e.tasks))
	}
	for ti, w := range s.Assign {
		if w < 0 || w >= e.workers {
			return fmt.Errorf("engine: snapshot puts task %d on worker %d of %d", ti, w, e.workers)
		}
	}
	if p := e.pme; p == nil && (s.Counter != 0 || len(s.RecipF) != 0) {
		return fmt.Errorf("engine: snapshot carries PME state; the engine has no PME")
	} else if p != nil && (s.Counter >= p.MTSPeriod || len(s.RecipF) == 0) {
		return fmt.Errorf("engine: snapshot at MTS step %d with %d reciprocal forces; the engine's MTS period is %d", s.Counter, len(s.RecipF), p.MTSPeriod)
	}
	name, words := "", 0
	if th := e.thermostat; th != nil {
		name, words = th.Name(), len(th.State())
	}
	if s.Thermostat != name || len(s.Thermo) != words {
		return fmt.Errorf("engine: snapshot thermostat %q with %d state words; the engine's is %q with %d", s.Thermostat, len(s.Thermo), name, words)
	}

	copy(e.St.Pos, s.Pos)
	copy(e.St.Vel, s.Vel)
	e.steps = s.Step
	copy(e.assign, s.Assign)
	e.balances = s.Balances
	if c := e.clb; c != nil {
		e.rebuildClusters(s.Anchor)
		c.guard.Invalidate()
		c.prune.Expire() // emitted at the anchor, not at s.Pos
	}
	if p := e.pme; p != nil {
		copy(p.Forces(), s.RecipF)
		p.Counter, p.SlowEnergy, p.SlowVirial, p.Primed = s.Counter, s.SlowEnergy, s.SlowVirial, true
	}
	if th := e.thermostat; th != nil {
		copy(th.State(), s.Thermo)
	}
	e.fresh = false
	return nil
}
