package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gonamd"
	"gonamd/internal/ckpt"
	"gonamd/internal/ensemble"
	"gonamd/internal/ftdc"
	"gonamd/internal/projections"
	"gonamd/internal/trace"
	"gonamd/internal/traj"
)

// Job lifecycle states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StatePaused   = "paused"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority,omitempty"`

	State string `json:"state"`
	Note  string `json:"note,omitempty"`

	Step    int64 `json:"step"`
	Steps   int64 `json:"steps"`
	Frames  int   `json:"frames,omitempty"`
	Resumes int   `json:"resumes,omitempty"` // times resumed from a checkpoint

	Energy     *EnergyReport `json:"energy,omitempty"`
	Potentials []float64     `json:"potentials,omitempty"` // ensemble jobs

	DroppedEvents int64 `json:"dropped_events,omitempty"`

	SubmittedAt time.Time `json:"submitted_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// sliceOutcome is what a scheduling slice reports back to the scheduler.
type sliceOutcome int

const (
	outcomeProgress sliceOutcome = iota // step budget not exhausted: requeue
	outcomeDone
	outcomeFailed
	outcomeCanceled
	outcomePaused
	outcomeKilled // abrupt shutdown: no files written, no requeue
)

// Job is one simulation managed by the scheduler. The engine and all
// files are guarded by mu, held for the duration of one scheduling
// slice; the status snapshot has its own lock so status queries never
// wait on a running slice.
type Job struct {
	ID   string
	Spec JobSpec

	dir      string // scheduler state directory
	specJSON []byte // persisted spec, embedded in checkpoints

	cancelF atomic.Bool
	pauseF  atomic.Bool

	events *broker

	mu            sync.Mutex
	built         bool
	sys           *gonamd.System
	st            *gonamd.State
	eng           *gonamd.Parallel // nil for ensemble jobs, and again once finalized
	ens           *ensemble.Ensemble
	tlog          *trace.Log
	step          int64
	frames        int
	trajFile      *os.File
	trajW         *traj.Writer
	pendingResume *ckpt.JobState // set by rescan, applied on first slice

	// Always-on telemetry: the recorder samples the engine's metric
	// vector and persists it to <id>.ftdc next to the checkpoint. The
	// recorder pointer lives under statusMu (never j.mu, which is held
	// for whole slices) so the metrics endpoint can reach it while a
	// slice runs; the recorder itself is internally synchronized.
	metricsInterval time.Duration
	metricsFW       *ftdc.FileWriter

	statusMu sync.Mutex
	status   JobStatus
	metrics  *ftdc.Recorder
}

func newJob(id, dir string, spec JobSpec, specJSON []byte, metricsInterval time.Duration) *Job {
	j := &Job{ID: id, Spec: spec, dir: dir, specJSON: specJSON, events: &broker{},
		metricsInterval: metricsInterval}
	j.status = JobStatus{
		ID: id, Name: spec.Name, Tenant: spec.Tenant, Priority: spec.Priority,
		State: StateQueued, Steps: spec.Steps, SubmittedAt: time.Now().UTC(),
	}
	return j
}

// Status returns a consistent snapshot of the job's state.
func (j *Job) Status() JobStatus {
	j.statusMu.Lock()
	defer j.statusMu.Unlock()
	st := j.status
	st.DroppedEvents = j.events.fan.Dropped()
	if st.Energy != nil {
		e := *st.Energy
		st.Energy = &e
	}
	st.Potentials = append([]float64(nil), st.Potentials...)
	return st
}

func (j *Job) updateStatus(mut func(*JobStatus)) {
	j.statusMu.Lock()
	mut(&j.status)
	j.statusMu.Unlock()
}

// publishState records a state transition and announces it on the event
// stream.
func (j *Job) publishState(state, note string) {
	j.updateStatus(func(s *JobStatus) {
		s.State = state
		if note != "" {
			s.Note = note
		}
		s.Step = j.step
		s.Frames = j.frames
		if terminal(state) {
			s.FinishedAt = time.Now().UTC()
		}
	})
	j.events.publish(Event{Type: "status", Job: j.ID, Step: j.step, State: state, Note: note})
}

// ensure lazily builds the system and engine, applying a pending resume
// snapshot. The fresh and resume paths construct the engine over
// identical coordinates (JobSpec.prepare: build + minimize), so
// construction-time state (task decomposition, static assignment) matches
// the uninterrupted run and the resumed trajectory stays bit-identical.
func (j *Job) ensure() error {
	if j.built {
		return nil
	}
	sys, ff, st, err := j.Spec.prepare()
	if err != nil {
		return err
	}
	if j.Spec.Trace {
		j.tlog = trace.NewLog()
	}
	if j.Spec.Ensemble != nil {
		cfg := j.Spec.ensembleConfig()
		cfg.Trace = j.tlog
		ens, err := ensemble.New(sys, ff, st, cfg)
		if err != nil {
			return err
		}
		j.ens = ens
	} else {
		var extra []gonamd.Option
		if j.tlog != nil {
			extra = append(extra, gonamd.WithTrace(j.tlog))
		}
		if j.metricsInterval >= 0 {
			// OpenFile recovers a torn tail from a crash and appends, so
			// a resumed job keeps its pre-crash samples. The recorder is
			// the job's from here on, so finalize closes it and the file
			// even if the engine then fails to build.
			fw, err := ftdc.OpenFile(j.metricsPath(), ftdc.EngineSchema())
			if err != nil {
				return err
			}
			rec := ftdc.NewEngineRecorder(j.metricsInterval)
			rec.SetSink(fw)
			j.metricsFW = fw
			j.statusMu.Lock()
			j.metrics = rec
			j.statusMu.Unlock()
			extra = append(extra, gonamd.WithMetricsRecorder(rec))
		}
		eng, _, err := j.Spec.Engine.NewEngine(sys, ff, st, extra...)
		if err != nil {
			return err
		}
		j.eng = eng
	}
	j.sys, j.st = sys, st

	if snap := j.pendingResume; snap != nil {
		if err := j.applyResume(snap); err != nil {
			return err
		}
		j.pendingResume = nil
	} else if j.Spec.FrameEvery > 0 {
		f, err := os.Create(j.trajPath())
		if err != nil {
			return err
		}
		w, err := traj.NewWriter(f, sys.N(), sys.Box)
		if err != nil {
			f.Close()
			return err
		}
		j.trajFile, j.trajW = f, w
	}
	j.built = true
	return nil
}

// applyResume restores engine state from a checkpoint and reconciles the
// trajectory file: frames recorded after the checkpoint step are
// dropped (they will be regenerated identically), torn trailing frames
// from a crash mid-write are discarded.
func (j *Job) applyResume(snap *ckpt.JobState) error {
	// Bit-identical resume only holds within one numerical mode: a
	// checkpoint taken under the analytic kernel replayed under the
	// tabulated one (or in a mode this server no longer has) would
	// silently continue a different trajectory.
	if have, want := snap.Precision, j.Spec.Engine.PrecisionMode(); have != want {
		return fmt.Errorf("serve: job %s checkpoint was taken in precision mode %s but the spec selects %s; trajectories are not comparable across modes — resubmit as a fresh job instead of resuming", j.ID, have, want)
	}
	if j.ens != nil {
		if snap.Ensemble == nil {
			return fmt.Errorf("serve: job %s checkpoint is not an ensemble snapshot", j.ID)
		}
		if err := j.ens.Restore(snap.Ensemble); err != nil {
			return err
		}
	} else {
		if snap.Engine == nil {
			return fmt.Errorf("serve: job %s checkpoint carries no engine state", j.ID)
		}
		if err := j.eng.Restore(snap.Engine); err != nil {
			return fmt.Errorf("serve: job %s: %w", j.ID, err)
		}
	}
	j.step = snap.Step
	if j.Spec.FrameEvery > 0 {
		file, w, kept, err := rewindTrajectory(j.trajPath(), j.sys.N(), j.sys.Box, snap.Step)
		if err != nil {
			return err
		}
		j.trajFile, j.trajW, j.frames = file, w, kept
	}
	j.updateStatus(func(s *JobStatus) { s.Step = j.step; s.Frames = j.frames })
	return nil
}

// rewindTrajectory rewrites a trajectory file keeping only frames at or
// before maxStep, and returns an open writer positioned to append the
// next frame. A missing file starts a fresh trajectory, and so does one
// whose header does not describe this job's atoms (a damaged file).
func rewindTrajectory(path string, natoms int, box gonamd.V3, maxStep int64) (*os.File, *traj.Writer, int, error) {
	var kept []*traj.Frame
	if old, err := os.Open(path); err == nil {
		r, rerr := traj.NewReader(old)
		if rerr == nil && r.NAtoms == natoms {
			for {
				fr, ferr := r.ReadFrame()
				if ferr != nil {
					break // io.EOF or a torn trailing frame from a crash
				}
				if fr.Step > maxStep {
					break
				}
				kept = append(kept, fr)
			}
		}
		old.Close()
	} else if !os.IsNotExist(err) {
		return nil, nil, 0, err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "traj*.tmp")
	if err != nil {
		return nil, nil, 0, err
	}
	w, err := traj.NewWriter(tmp, natoms, box)
	if err == nil {
		for _, fr := range kept {
			if err = w.WriteFrame(fr.Step, fr.Time, fr.Pos); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, nil, 0, err
	}
	return tmp, w, len(kept), nil
}

// runSlice advances the job by up to n steps. It is called with the
// scheduler's kill channel; a close there models a crash, so the slice
// returns immediately without touching disk.
func (j *Job) runSlice(n int, killed <-chan struct{}) sliceOutcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ensure(); err != nil {
		return j.finalize(StateFailed, err.Error())
	}
	if j.ens != nil {
		return j.runEnsembleSlice(n, killed)
	}
	for i := 0; i < n && j.step < j.Spec.Steps; i++ {
		select {
		case <-killed:
			return outcomeKilled
		default:
		}
		if j.cancelF.Load() {
			return j.finalize(StateCanceled, "canceled")
		}
		if j.pauseF.Load() {
			return j.pauseNow()
		}
		if err := j.eng.Step(j.Spec.Dt); err != nil {
			return j.finalize(StateFailed, err.Error())
		}
		j.step++
		if err := j.emitCadence(); err != nil {
			return j.finalize(StateFailed, err.Error())
		}
	}
	if j.step >= j.Spec.Steps {
		return j.complete()
	}
	j.updateStatus(func(s *JobStatus) { s.Step = j.step; s.Frames = j.frames })
	return outcomeProgress
}

// emitCadence handles the per-step cadences: trajectory frames, energy
// events, and checkpoints. Frames are flushed before a checkpoint is
// written, so every durable checkpoint dominates the durable frames.
func (j *Job) emitCadence() error {
	if fe := j.Spec.FrameEvery; fe > 0 && j.step%fe == 0 {
		t := float64(j.step) * j.Spec.Dt
		if err := j.trajW.WriteFrame(j.step, t, j.st.Pos); err != nil {
			return err
		}
		j.frames++
		j.events.publish(Event{Type: "frame", Job: j.ID, Step: j.step,
			Frame: &FrameInfo{Index: j.frames - 1, TimeFs: t}})
	}
	if ee := j.Spec.EnergyEvery; ee > 0 && j.step%ee == 0 {
		rep := energyReport(j.eng.Energies(), j.eng.Temperature())
		j.updateStatus(func(s *JobStatus) { s.Step = j.step; s.Energy = rep })
		j.events.publish(Event{Type: "energy", Job: j.ID, Step: j.step, Energy: rep})
	}
	if ce := j.Spec.CheckpointEvery; ce > 0 && j.step%ce == 0 {
		return j.checkpointLocked()
	}
	return nil
}

func (j *Job) runEnsembleSlice(n int, killed <-chan struct{}) sliceOutcome {
	select {
	case <-killed:
		return outcomeKilled
	default:
	}
	if j.cancelF.Load() {
		return j.finalize(StateCanceled, "canceled")
	}
	if j.pauseF.Load() {
		return j.pauseNow()
	}
	if rem := j.Spec.Steps - j.step; int64(n) > rem {
		n = int(rem)
	}
	before := j.step
	if err := j.ens.Run(n); err != nil {
		return j.finalize(StateFailed, err.Error())
	}
	j.step += int64(n)

	pots := make([]float64, j.ens.NumReplicas())
	for i := range pots {
		pots[i] = j.ens.Replica(i).Potential()
	}
	j.updateStatus(func(s *JobStatus) { s.Step = j.step; s.Potentials = pots })
	if ee := j.Spec.EnergyEvery; ee > 0 && j.step/ee > before/ee {
		j.events.publish(Event{Type: "energy", Job: j.ID, Step: j.step, Potentials: pots})
	}
	if ce := j.Spec.CheckpointEvery; ce > 0 && j.step/ce > before/ce {
		if err := j.checkpointLocked(); err != nil {
			return j.finalize(StateFailed, err.Error())
		}
	}
	if j.step >= j.Spec.Steps {
		return j.complete()
	}
	return outcomeProgress
}

// snapshotLocked captures the job's complete dynamic state: its
// engine's, or its ensemble's, whole state.
func (j *Job) snapshotLocked() *ckpt.JobState {
	snap := &ckpt.JobState{ID: j.ID, SpecJSON: j.specJSON, Step: j.step,
		Precision: j.Spec.Engine.PrecisionMode()}
	if j.ens != nil {
		snap.Ensemble = j.ens.Snapshot()
	} else {
		snap.Engine = j.eng.Snapshot()
	}
	return snap
}

// checkpointLocked flushes and fsyncs the trajectory, then writes an
// atomic checkpoint, making everything up to the current step durable.
// The Sync ordering matters: a durable checkpoint must dominate the
// durable frames even across power loss, or rewindTrajectory would
// silently resume with a gap in the trajectory.
func (j *Job) checkpointLocked() error {
	if j.trajW != nil {
		if err := j.trajW.Flush(); err != nil {
			return err
		}
		if err := j.trajFile.Sync(); err != nil {
			return err
		}
	}
	if err := ckpt.SaveJobFile(j.ckptPath(), j.snapshotLocked()); err != nil {
		return err
	}
	// Make the telemetry at least as durable as the checkpoint: one
	// fresh sample, then flush + fsync the .ftdc file. A post-crash
	// rescan can then always explain what the job was doing up to its
	// last durable checkpoint.
	if rec := j.Metrics(); rec != nil {
		rec.SampleNow()
		if err := rec.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// CheckpointNow is the graceful-shutdown hook: it checkpoints a built,
// non-terminal job so a restarted server resumes it exactly here. Jobs
// that never started have nothing to save — their spec is already on
// disk and they restart from scratch.
func (j *Job) CheckpointNow() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.built || terminal(j.Status().State) {
		return nil
	}
	return j.checkpointLocked()
}

// complete finishes a job whose step budget is exhausted.
func (j *Job) complete() sliceOutcome {
	if err := j.checkpointLocked(); err != nil {
		return j.finalize(StateFailed, err.Error())
	}
	return j.finalize(StateDone, "")
}

// pauseNow checkpoints and parks the job.
func (j *Job) pauseNow() sliceOutcome {
	if err := j.checkpointLocked(); err != nil {
		return j.finalize(StateFailed, err.Error())
	}
	j.publishState(StatePaused, "")
	j.persistStatus()
	return outcomePaused
}

// finalize moves the job to a terminal state: closes the trajectory,
// persists the terminal status, emits the final events (including the
// Projections summary when tracing), ends every event stream, and stops
// and drops the engines — a terminal job is read through its status,
// trace log, metrics ring and files, never its engine, and a worker pool
// left running would hold the engine for the life of the server.
func (j *Job) finalize(state, note string) sliceOutcome {
	j.closeEnginesLocked()
	j.eng, j.ens = nil, nil
	if j.trajW != nil {
		err := j.trajW.Flush()
		if cerr := j.trajFile.Close(); err == nil {
			err = cerr
		}
		if err != nil && state == StateDone {
			state, note = StateFailed, fmt.Sprintf("writing trajectory: %v", err)
		}
		j.trajFile, j.trajW = nil, nil
	}
	if rec := j.Metrics(); rec != nil {
		// Graceful end: final sample, flush, close the file, end the
		// metrics streams. The recorder's ring stays readable for
		// late GET /metrics requests on the terminal job.
		rec.Close()
		if j.metricsFW != nil {
			j.metricsFW.Close()
			j.metricsFW = nil
		}
	}
	j.publishState(state, note)
	if state == StateDone && j.tlog != nil {
		if raw, err := summaryJSON(j.tlog); err == nil {
			j.events.publish(Event{Type: "summary", Job: j.ID, Step: j.step, Summary: raw})
		}
	}
	j.persistStatus()
	j.events.close()
	switch state {
	case StateDone:
		return outcomeDone
	case StateCanceled:
		return outcomeCanceled
	default:
		return outcomeFailed
	}
}

// closeEnginesLocked stops the worker pools of the job's engines, whose
// goroutines would otherwise outlive the job. The engines stay usable: a
// later step starts a fresh pool.
func (j *Job) closeEnginesLocked() {
	if j.eng != nil {
		j.eng.Close()
	}
	if j.ens != nil {
		j.ens.Close()
	}
}

// closeEngines is closeEnginesLocked for the scheduler's stop and kill
// paths, which run after every slice has returned.
func (j *Job) closeEngines() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closeEnginesLocked()
}

// finalizeExternal finalizes a job that is not on a worker (queued or
// paused) — used by cancel and by rescan error paths.
func (j *Job) finalizeExternal(state, note string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finalize(state, note)
}

// summaryJSON renders the job's Projections report as JSON.
func summaryJSON(l *trace.Log) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := projections.Analyze(l, projections.Options{}).WriteJSON(&buf); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

// Summary analyzes the job's trace on demand (the summary endpoint).
func (j *Job) Summary() (json.RawMessage, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.tlog == nil {
		return nil, fmt.Errorf("serve: job %s was not submitted with trace=true", j.ID)
	}
	return summaryJSON(j.tlog)
}

// ReadTrajectory streams a consistent copy of the job's trajectory.
func (j *Job) ReadTrajectory(w io.Writer) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.trajW != nil {
		if err := j.trajW.Flush(); err != nil {
			return err
		}
	}
	f, err := os.Open(j.trajPath())
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

// persistStatus writes the status file read back by a rescan.
func (j *Job) persistStatus() {
	st := j.Status()
	_ = ckpt.AtomicWriteFile(j.statusPath(), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	})
}

// Metrics returns the job's live telemetry recorder, or nil if the job
// has not begun building its engine (or metrics are disabled). Safe to call
// while a slice runs — the pointer lives under statusMu, not j.mu.
func (j *Job) Metrics() *ftdc.Recorder {
	j.statusMu.Lock()
	defer j.statusMu.Unlock()
	return j.metrics
}

// killMetrics abandons the telemetry pipeline the way a crash would:
// the sampler stops, buffered samples are lost, and the file keeps
// whatever chunks were already written — possibly a torn tail for
// OpenFile to recover on restart. Called only from the scheduler's
// kill path after all workers have stopped.
func (j *Job) killMetrics() {
	if rec := j.Metrics(); rec != nil {
		rec.Kill()
	}
	if j.metricsFW != nil {
		j.metricsFW.Kill()
		j.metricsFW = nil
	}
}

// closeMetrics ends the telemetry pipeline gracefully (final sample,
// flush, fsync) for the scheduler's drain-and-stop path.
func (j *Job) closeMetrics() {
	if rec := j.Metrics(); rec != nil {
		rec.Close()
	}
	if j.metricsFW != nil {
		j.metricsFW.Sync()
		j.metricsFW.Close()
		j.metricsFW = nil
	}
}

func (j *Job) ckptPath() string    { return jobPath(j.dir, j.ID, "ckpt") }
func (j *Job) trajPath() string    { return jobPath(j.dir, j.ID, "traj") }
func (j *Job) statusPath() string  { return jobPath(j.dir, j.ID, "status.json") }
func (j *Job) specPath() string    { return jobPath(j.dir, j.ID, "spec.json") }
func (j *Job) metricsPath() string { return jobPath(j.dir, j.ID, "ftdc") }
