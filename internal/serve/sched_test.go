package serve

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gonamd"
	"gonamd/internal/ckpt"
)

// waterJob is a small, fast MD job spec used across scheduler tests.
func waterJob(steps int64) JobSpec {
	return JobSpec{
		System:      SystemSpec{Preset: "water", Side: 10, Seed: 7, Cutoff: 4.5},
		Steps:       steps,
		EnergyEvery: -1, // no energy events unless a test wants them
	}
}

func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	// Generous: under -race on a shared two-core host a job of a few
	// hundred steps can wait seconds for a worker behind its neighbours,
	// and a met condition returns at once.
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitState(t *testing.T, s *Scheduler, id, state string) JobStatus {
	t.Helper()
	var st JobStatus
	waitFor(t, id+" to reach "+state, func() bool {
		j, ok := s.Get(id)
		if !ok {
			return false
		}
		st = j.Status()
		return st.State == state
	})
	return st
}

// TestSchedulerQuotaEnforcement: with a per-tenant quota of 1, a tenant's
// three jobs never run concurrently even with idle workers, while another
// tenant's job still gets a worker.
func TestSchedulerQuotaEnforcement(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 4, SliceSteps: 10, TenantQuota: 1, CheckpointEvery: 1 << 30})
	defer s.Stop()

	var ids []string
	for i := 0; i < 3; i++ {
		spec := waterJob(60)
		spec.Tenant = "alpha"
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	other := waterJob(60)
	other.Tenant = "beta"
	bst, err := s.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, bst.ID)

	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	stats := s.Stats()
	if got := stats.Tenants["alpha"].MaxRunning; got != 1 {
		t.Errorf("alpha peak concurrency = %d, want 1 (quota)", got)
	}
	if got := stats.Tenants["beta"].MaxRunning; got != 1 {
		t.Errorf("beta peak concurrency = %d, want 1", got)
	}
}

// TestSchedulerFairSlicingNoStarvation: on a single worker, a short job
// submitted after a long one still finishes first, because jobs run in
// round-robin slices rather than to completion.
func TestSchedulerFairSlicingNoStarvation(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, SliceSteps: 10, CheckpointEvery: 1 << 30})
	defer s.Stop()

	long := waterJob(5000)
	long.Tenant = "long"
	lst, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	short := waterJob(40)
	short.Tenant = "short"
	sst, err := s.Submit(short)
	if err != nil {
		t.Fatal(err)
	}

	waitState(t, s, sst.ID, StateDone)
	lj, _ := s.Get(lst.ID)
	if got := lj.Status(); got.State == StateDone {
		t.Fatalf("long job finished before short job (long at step %d)", got.Step)
	} else if got.Step >= 5000 {
		t.Fatalf("long job at step %d, want < 5000 while short finishes", got.Step)
	}
	if _, err := s.Cancel(lst.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, lst.ID, StateCanceled)
}

// TestSchedulerCancelWhileRunning: cancelling a job mid-slice stops it at
// the next step boundary and closes its event stream.
func TestSchedulerCancelWhileRunning(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, SliceSteps: 50, CheckpointEvery: 1 << 30})
	defer s.Stop()

	st, err := s.Submit(waterJob(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to make progress", func() bool {
		j, _ := s.Get(st.ID)
		return j.Status().Step > 0
	})
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, st.ID, StateCanceled)
	if got.Step <= 0 || got.Step >= 1<<20 {
		t.Errorf("canceled at step %d, want mid-run", got.Step)
	}
	j, _ := s.Get(st.ID)
	_, live, cancel := j.events.subscribe()
	defer cancel()
	select {
	case _, open := <-live:
		if open {
			t.Error("event stream still live after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Error("event stream not closed after cancel")
	}
}

// TestSchedulerPauseResume: pausing checkpoints and parks the job;
// resuming requeues it and it runs to completion.
func TestSchedulerPauseResume(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, Config{StateDir: dir, Workers: 1, SliceSteps: 10, CheckpointEvery: 1 << 30})
	defer s.Stop()

	st, err := s.Submit(waterJob(2000))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to make progress", func() bool {
		j, _ := s.Get(st.ID)
		return j.Status().Step > 0
	})
	if _, err := s.Pause(st.ID); err != nil {
		t.Fatal(err)
	}
	paused := waitState(t, s, st.ID, StatePaused)
	if paused.Step <= 0 {
		t.Fatalf("paused at step %d, want > 0", paused.Step)
	}
	if _, err := os.Stat(jobPath(dir, st.ID, "ckpt")); err != nil {
		t.Fatalf("pause did not checkpoint: %v", err)
	}
	if _, err := s.Resume(st.ID); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, st.ID, StateDone)
	if done.Step != 2000 {
		t.Errorf("finished at step %d, want 2000", done.Step)
	}
}

// TestSchedulerPriorityWithinTenant: a higher-priority job submitted
// later runs before a queued lower-priority job of the same tenant.
func TestSchedulerPriorityWithinTenant(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, SliceSteps: 1 << 20, TenantQuota: 1, CheckpointEvery: 1 << 30})
	defer s.Stop()

	// One long job holds the single worker while the queue builds up.
	blocker, err := s.Submit(waterJob(600))
	if err != nil {
		t.Fatal(err)
	}
	low := waterJob(10)
	lowSt, err := s.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	high := waterJob(10)
	high.Priority = 5
	highSt, err := s.Submit(high)
	if err != nil {
		t.Fatal(err)
	}

	waitState(t, s, highSt.ID, StateDone)
	waitState(t, s, lowSt.ID, StateDone)
	hj, _ := s.Get(highSt.ID)
	lj, _ := s.Get(lowSt.ID)
	if h, l := hj.Status().FinishedAt, lj.Status().FinishedAt; h.After(l) {
		t.Errorf("high-priority job finished at %v, after low-priority at %v", h, l)
	}
	waitState(t, s, blocker.ID, StateDone)
}

// TestRecoveryRescanDistinguishesCheckpointErrors: a restarted scheduler
// must treat checkpoint failures by kind — a version mismatch fails the
// job (intact bytes this build cannot interpret), while corruption (a
// torn write) restarts the job from step 0, and a valid checkpoint
// resumes.
func TestRecoveryRescanDistinguishesCheckpointErrors(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, Config{StateDir: dir, Workers: 3, TenantQuota: 3, SliceSteps: 10, CheckpointEvery: 20})
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(waterJob(400))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitFor(t, "all jobs to checkpoint", func() bool {
		for _, id := range ids {
			if _, err := os.Stat(jobPath(dir, id, "ckpt")); err != nil {
				return false
			}
		}
		return true
	})
	s.Kill()

	// ids[0]: rewrite the version field to 1, the format before engine
	// state → ErrVersionMismatch.
	tamper(t, jobPath(dir, ids[0], "ckpt"), func(b []byte) {
		binary.LittleEndian.PutUint32(b[12:16], 1)
	})
	// ids[1]: flip a payload byte → ErrCorrupt (checksum mismatch).
	tamper(t, jobPath(dir, ids[1], "ckpt"), func(b []byte) {
		b[40] ^= 0xFF
	})
	// ids[2]: left intact → resumes.

	s2 := newTestScheduler(t, Config{StateDir: dir, Workers: 3, TenantQuota: 3, SliceSteps: 10, CheckpointEvery: 20})
	defer s2.Stop()

	failed := waitState(t, s2, ids[0], StateFailed)
	if !strings.Contains(failed.Note, "version 1") {
		t.Errorf("version-mismatch note = %q, want it to name version 1", failed.Note)
	}
	j1, _ := s2.Get(ids[1])
	if note := j1.Status().Note; !strings.Contains(note, "restarted from step 0") {
		t.Errorf("corrupt-checkpoint note = %q, want restart notice", note)
	}
	if res := j1.Status().Resumes; res != 0 {
		t.Errorf("corrupt-checkpoint job Resumes = %d, want 0", res)
	}
	j2, _ := s2.Get(ids[2])
	if res := j2.Status().Resumes; res != 1 {
		t.Errorf("intact-checkpoint job Resumes = %d, want 1", res)
	}
	if note := j2.Status().Note; !strings.Contains(note, "resumed from checkpoint") {
		t.Errorf("intact-checkpoint note = %q, want resume notice", note)
	}
	for _, id := range ids[1:] {
		if _, err := s2.Cancel(id); err != nil {
			t.Fatal(err)
		}
		waitState(t, s2, id, StateCanceled)
	}
}

// TestRecoveryRescanSpecWithoutCheckpoint: a job whose spec is on disk
// but that never reached its first checkpoint cadence (queued at
// shutdown, or killed early) must come back as a fresh job at step 0 —
// not prevent the server from restarting. Regression test: the ENOENT
// from the missing checkpoint file used to be fmt-wrapped, os.IsNotExist
// missed it, and NewScheduler failed for good. The first scheduler has
// no free worker slot, so the job is persisted and queued but never
// dispatched: "no checkpoint yet" holds by construction (a dispatched
// 40-step job could finish and checkpoint before Kill).
func TestRecoveryRescanSpecWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, Config{StateDir: dir, Workers: 1, SliceSteps: 10, CheckpointEvery: 1 << 30})
	s.mu.Lock()
	s.free = 0
	s.mu.Unlock()
	st, err := s.Submit(waterJob(40))
	if err != nil {
		t.Fatal(err)
	}
	s.Kill()
	if _, err := os.Stat(jobPath(dir, st.ID, "ckpt")); !os.IsNotExist(err) {
		t.Fatalf("precondition: checkpoint must not exist, stat err = %v", err)
	}

	s2, err := NewScheduler(Config{StateDir: dir, Workers: 1, SliceSteps: 10, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatalf("restart with un-checkpointed job failed: %v", err)
	}
	defer s2.Stop()
	done := waitState(t, s2, st.ID, StateDone)
	if done.Step != 40 {
		t.Errorf("finished at step %d, want 40", done.Step)
	}
	if done.Resumes != 0 {
		t.Errorf("Resumes = %d, want 0 (never checkpointed, restarted from scratch)", done.Resumes)
	}
}

// TestRescanRemovesAtomicWriteTemps: a kill inside ckpt.AtomicWriteFile
// leaves <file>.tmp<digits> in the state directory; the restarted
// scheduler deletes it, keeps the job's own files, and resumes the job.
func TestRescanRemovesAtomicWriteTemps(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, Config{StateDir: dir, Workers: 1, SliceSteps: 10, CheckpointEvery: 1 << 30})
	s.mu.Lock()
	s.free = 0
	s.mu.Unlock()
	st, err := s.Submit(waterJob(40))
	if err != nil {
		t.Fatal(err)
	}
	s.Kill()
	temps := []string{jobPath(dir, st.ID, "ckpt.tmp2767504950"), jobPath(dir, st.ID, "status.json.tmp11")}
	for _, p := range temps {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Not a temporary file of an atomic write: kept.
	other := filepath.Join(dir, "notes.tmpx")
	if err := os.WriteFile(other, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewScheduler(Config{StateDir: dir, Workers: 1, SliceSteps: 10, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	for _, p := range temps {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived the restart (stat err %v)", filepath.Base(p), err)
		}
	}
	if _, err := os.Stat(other); err != nil {
		t.Errorf("rescan removed %s: %v", filepath.Base(other), err)
	}
	if _, err := os.Stat(jobPath(dir, st.ID, "spec.json")); err != nil {
		t.Errorf("job spec gone: %v", err)
	}
	if done := waitState(t, s2, st.ID, StateDone); done.Step != 40 {
		t.Errorf("finished at step %d, want 40", done.Step)
	}
}

// TestRescanReportsCheckpointStep: a resumable job's status must report
// the checkpoint step immediately after rescan, before the lazily
// applied resume snapshot runs its first slice — status/list endpoints
// answer in that window. The scheduler is assembled by hand so rescan
// runs without dispatch and the pre-slice status is observable
// deterministically.
func TestRescanReportsCheckpointStep(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, Config{StateDir: dir, Workers: 1, SliceSteps: 10, CheckpointEvery: 20})
	st, err := s.Submit(waterJob(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to checkpoint", func() bool {
		_, err := os.Stat(jobPath(dir, st.ID, "ckpt"))
		return err == nil
	})
	s.Kill()
	snap, err := ckpt.LoadJobFile(jobPath(dir, st.ID, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step == 0 {
		t.Fatal("precondition: checkpoint at step 0")
	}

	cfg, err := Config{StateDir: dir, Workers: 1, SliceSteps: 10, CheckpointEvery: 20}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s2 := &Scheduler{
		cfg:        cfg,
		jobs:       make(map[string]*Job),
		queues:     make(map[string][]*Job),
		running:    make(map[string]int),
		maxRunning: make(map[string]int),
		free:       cfg.Workers,
		nextID:     1,
		killed:     make(chan struct{}),
	}
	if err := s2.rescan(); err != nil {
		t.Fatal(err)
	}
	got := s2.jobs[st.ID].Status()
	if got.Step != snap.Step {
		t.Errorf("status after rescan reports step %d, want checkpoint step %d", got.Step, snap.Step)
	}
	if got.State != StateQueued {
		t.Errorf("state after rescan = %q, want %q", got.State, StateQueued)
	}
	var onDisk JobStatus
	raw, err := os.ReadFile(jobPath(dir, st.ID, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.Step != snap.Step {
		t.Errorf("persisted status reports step %d, want checkpoint step %d", onDisk.Step, snap.Step)
	}
}

// TestResumeSkipsMinimization: a resumed job does not run its spec's
// minimization, whose every position the checkpoint overwrites. The job
// checkpoints unminimized, then resumes under its spec with 2^30
// minimizer iterations — hours of work if they ran — and must come back
// at its checkpoint step within a minute.
func TestResumeSkipsMinimization(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, Config{StateDir: dir, Workers: 1, SliceSteps: 10, CheckpointEvery: 20})
	st, err := s.Submit(waterJob(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to checkpoint", func() bool {
		_, err := os.Stat(jobPath(dir, st.ID, "ckpt"))
		return err == nil
	})
	first, _ := s.Get(st.ID)
	s.Kill()
	snap, err := ckpt.LoadJobFile(jobPath(dir, st.ID, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	spec := first.Spec
	spec.Minimize = 1 << 30
	j := newJob(st.ID, dir, spec, nil, -1)
	j.pendingResume = snap
	done := make(chan error, 1)
	go func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		done <- j.ensure()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("resumed job still building after a minute: it is minimizing")
	}
	defer j.closeEngines()
	if j.step != snap.Step {
		t.Errorf("resumed at step %d, want checkpoint step %d", j.step, snap.Step)
	}
}

func tamper(t *testing.T, path string, mut func([]byte)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut(b)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFinishedJobsReleaseWorkers: a finished job stops its engine's
// worker pool and drops the engine, so the process's goroutine count
// returns to where it was however many multi-worker jobs have run. (The
// pool's parked goroutines used to hold every finished engine, and its
// O(N·workers) accumulators, for the life of the server.)
func TestFinishedJobsReleaseWorkers(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 2, TenantQuota: 2, SliceSteps: 10, CheckpointEvery: 1 << 30})
	defer s.Stop()
	baseline := runtime.NumGoroutine()

	var ids []string
	for i := 0; i < 4; i++ {
		spec := waterJob(30)
		spec.Engine = gonamd.EngineSpec{Engine: "par", Workers: 2}
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	waitFor(t, "the goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
	for _, id := range ids {
		if j, _ := s.Get(id); j.eng != nil {
			t.Errorf("finished job %s still holds its engine", id)
		}
	}
}

// TestConstrainedJobHoldsBondLengths: hbond_constraints is not just
// accepted and attached — the scheduler drives the constrained step, so
// after several slices at a 2 fs timestep every O–H bond of the
// checkpointed state sits at its equilibrium length within the SHAKE
// tolerance. (The job used to run plain unconstrained steps, silently.)
// A solver that cannot converge fails the job with its error.
func TestConstrainedJobHoldsBondLengths(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, Config{StateDir: dir, Workers: 1, SliceSteps: 10, CheckpointEvery: 1 << 30})
	defer s.Stop()

	spec := waterJob(40)
	spec.Dt = 2
	spec.Minimize = 40
	spec.Engine = gonamd.EngineSpec{ClusterM: 4, ClusterN: 8, HBondConstraints: true}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)

	snap, err := ckpt.LoadJobFile(jobPath(dir, st.ID, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := spec.System.build()
	if err != nil {
		t.Fatal(err)
	}
	ff := gonamd.StandardForceField(spec.System.Cutoff)
	for _, b := range sys.Bonds {
		r := gonamd.MinImage(snap.Engine.Pos[b.I], snap.Engine.Pos[b.J], sys.Box).Norm()
		// SHAKE converges |r|² to a relative 1e-8.
		if want := ff.BondTypes[b.Type].R0; math.Abs(r-want) > 1e-8*want {
			t.Fatalf("bond %d-%d length %.10f after a constrained job, want %.10f", b.I, b.J, r, want)
		}
	}

	diverging := waterJob(40)
	diverging.Dt = 200
	diverging.Engine = spec.Engine
	st, err = s.Submit(diverging)
	if err != nil {
		t.Fatal(err)
	}
	if failed := waitState(t, s, st.ID, StateFailed); !strings.Contains(failed.Note, "did not converge") {
		t.Errorf("note of the diverging constrained job = %q, want the solver's error", failed.Note)
	}
}
