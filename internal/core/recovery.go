// Checkpoint-based crash recovery for the cluster simulation. The sim
// takes a coordinated snapshot of all application state at quiescent
// step boundaries (every Config.CheckpointEvery steps); when a simulated
// PE crashes (Config.Faults), the lost messages stall the step protocol,
// the machine drains, and the sim rolls every object back to the last
// snapshot and re-executes from there. Because the snapshot restores
// everything that influences the event schedule — patch and compute
// progress, measured loads, per-PE statistics — the re-executed steps
// replay with identical relative timing, so a recovered run's measured
// results are bit-identical to a run that never failed (only absolute
// virtual times shift by the crash-and-recovery gap).
//
// Snapshots round-trip through the internal/ckpt envelope (gob payload,
// CRC-64, version check) even when kept in memory, so the recovery path
// exercises exactly the bytes that CheckpointPath persists to disk. A sim
// with neither a fault plan nor a CheckpointPath never reads a snapshot
// and encodes none.
package core

import (
	"bytes"
	"fmt"
	"io"

	"gonamd/internal/ckpt"
	"gonamd/internal/trace"
)

// simTag and simVersion identify the cluster-sim snapshot payload
// inside the ckpt envelope.
const (
	simTag     = "simc"
	simVersion = 1
)

// SimState is a coordinated snapshot of a cluster simulation's
// application state at a quiescent step boundary.
type SimState struct {
	Step int // steps every patch has completed

	PatchStep []int
	PatchGot  []map[int]int

	ComputeWork []float64 // includes accumulated load drift
	ComputeGot  []map[int]int

	ProxyGot map[int32]map[int]int // keyed by proxy ObjID

	// PencilGot holds the PME pencil progress maps, z-pencils first then
	// x-pencils (nil when PME is off).
	PencilGot []map[int]int

	StepEnd  []float64
	Loads    []float64 // charm measurement database
	BusyBase []float64

	PEBusy     []float64
	PEMsgs     []int
	TotalMsgs  int
	TotalBytes int
}

// gotMap converts an arrival counter to the snapshot's map form.
func gotMap(c stepCounter) map[int]int {
	out := make(map[int]int, len(c))
	for _, e := range c {
		out[e.key] = e.n
	}
	return out
}

// gotCounter converts a snapshot's map back to an arrival counter.
func gotCounter(m map[int]int) stepCounter {
	var c stepCounter
	for k, n := range m {
		c = append(c, stepCount{key: k, n: n})
	}
	return c
}

// snapshotState captures the sim's current application state.
func (s *Sim) snapshotState(step int) *SimState {
	st := &SimState{
		Step:        step,
		PatchStep:   make([]int, len(s.patches)),
		PatchGot:    make([]map[int]int, len(s.patches)),
		ComputeWork: make([]float64, len(s.computes)),
		ComputeGot:  make([]map[int]int, len(s.computes)),
		ProxyGot:    map[int32]map[int]int{},
		StepEnd:     append([]float64(nil), s.stepEnd...),
		Loads:       s.rt.Loads(),
		BusyBase:    append([]float64(nil), s.busyBase...),
		TotalMsgs:   s.m.TotalMsgs,
		TotalBytes:  s.m.TotalBytes,
	}
	for i, ps := range s.patches {
		st.PatchStep[i] = ps.step
		st.PatchGot[i] = gotMap(ps.got)
		for _, px := range ps.byPE {
			st.ProxyGot[int32(px.obj)] = gotMap(px.got)
		}
	}
	for i, cs := range s.computes {
		st.ComputeWork[i] = cs.work
		st.ComputeGot[i] = gotMap(cs.got)
	}
	for _, pen := range s.zPencils {
		st.PencilGot = append(st.PencilGot, gotMap(pen.got))
	}
	for _, pen := range s.xPencils {
		st.PencilGot = append(st.PencilGot, gotMap(pen.got))
	}
	busy, msgs := s.m.PEStats()
	st.PEBusy, st.PEMsgs = busy, msgs
	return st
}

// restoreState applies a snapshot, the inverse of snapshotState.
func (s *Sim) restoreState(st *SimState) {
	for i, ps := range s.patches {
		ps.step = st.PatchStep[i]
		ps.got = gotCounter(st.PatchGot[i])
		for _, px := range ps.byPE {
			if got, ok := st.ProxyGot[int32(px.obj)]; ok {
				px.got = gotCounter(got)
			}
		}
	}
	for i, cs := range s.computes {
		cs.work = st.ComputeWork[i]
		cs.got = gotCounter(st.ComputeGot[i])
	}
	for i, pen := range append(append([]*pencilState{}, s.zPencils...), s.xPencils...) {
		if i < len(st.PencilGot) {
			pen.got = gotCounter(st.PencilGot[i])
		}
	}
	s.stepEnd = append(s.stepEnd[:0], st.StepEnd...)
	s.rt.SetLoads(st.Loads)
	if st.BusyBase != nil {
		if s.busyBase == nil {
			s.busyBase = make([]float64, len(st.BusyBase))
		}
		copy(s.busyBase, st.BusyBase)
	}
	s.m.RestorePEStats(st.PEBusy, st.PEMsgs)
	s.m.TotalMsgs = st.TotalMsgs
	s.m.TotalBytes = st.TotalBytes
	s.rt.ResetReliable()
}

// takeSnapshot marks step as the rollback target. Only a fault plan can
// roll the sim back and only CheckpointPath persists a snapshot, so
// without either the step is all that is recorded.
func (s *Sim) takeSnapshot(step int) {
	if s.cfg.Faults != nil || s.cfg.CheckpointPath != "" {
		s.saveSnapshot(step)
		return
	}
	s.snapStep = step
}

// saveSnapshot encodes the current state through the ckpt envelope and
// keeps the bytes as the rollback target; with CheckpointPath set the
// same bytes are also persisted atomically.
func (s *Sim) saveSnapshot(step int) {
	st := s.snapshotState(step)
	var buf bytes.Buffer
	if err := ckpt.EnvelopeSave(&buf, simTag, simVersion, st); err != nil {
		panic(fmt.Sprintf("core: snapshot at step %d: %v", step, err))
	}
	s.snapBytes = buf.Bytes()
	s.snapStep = step
	if s.cfg.CheckpointPath != "" {
		err := ckpt.AtomicWriteFile(s.cfg.CheckpointPath, func(w io.Writer) error {
			_, werr := w.Write(s.snapBytes)
			return werr
		})
		if err != nil {
			panic(fmt.Sprintf("core: writing checkpoint: %v", err))
		}
	}
}

// recover rolls the simulation back to the last snapshot after a crash.
// The machine has already drained (crashed PEs restarted, every queue
// empty), so only application state needs restoring; virtual time keeps
// advancing, recording the cost of the failure.
func (s *Sim) recover() {
	st := &SimState{}
	if err := ckpt.EnvelopeLoad(bytes.NewReader(s.snapBytes), simTag, simVersion, st); err != nil {
		panic(fmt.Sprintf("core: decoding recovery snapshot: %v", err))
	}
	s.restoreState(st)
	s.crashed = false
	s.recoveries++
	if s.m.Trace.Enabled() {
		now := s.m.Now()
		s.m.Trace.Add(trace.ExecRecord{
			PE: 0, Obj: -1, Entry: "recovery.rollback", Start: now, End: now,
			Spans: []trace.Span{{Cat: trace.CatRecovery, Dur: 0}},
		})
	}
}
