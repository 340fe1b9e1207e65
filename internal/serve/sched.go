package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"gonamd/internal/ftdc"
)

// Config configures a Scheduler.
type Config struct {
	// StateDir is where specs, checkpoints, trajectories, and statuses
	// live; a restarted server rescans it and resumes incomplete jobs.
	StateDir string

	// Workers is the shared persistent pool size: how many job slices
	// execute concurrently across all tenants (0 = NumCPU).
	Workers int

	// SliceSteps is the scheduling quantum: a job runs this many engine
	// steps per turn, then goes to the back of its tenant's queue, so
	// long jobs cannot starve short ones (default 25).
	SliceSteps int

	// TenantQuota caps how many of one tenant's jobs run concurrently
	// (default 2). Queued jobs beyond the quota wait without blocking
	// other tenants.
	TenantQuota int

	// CheckpointEvery is the default crash-safety cadence in steps for
	// jobs that do not set their own (default 100).
	CheckpointEvery int64

	// MetricsInterval is the always-on telemetry sampling cadence for
	// every job, MD or ensemble: each gets an FTDC recorder whose samples
	// persist to <id>.ftdc next to the checkpoint and stream live from
	// GET /jobs/{id}/metrics. 0 selects the default (1s); negative
	// disables per-job metrics entirely.
	MetricsInterval time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.StateDir == "" {
		return c, fmt.Errorf("serve: Config.StateDir is required")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.SliceSteps <= 0 {
		c.SliceSteps = 25
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = 2
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 100
	}
	if c.MetricsInterval == 0 {
		c.MetricsInterval = time.Second
	}
	return c, nil
}

// Scheduler multiplexes many simulation jobs over one bounded worker
// pool with per-tenant admission: round-robin across tenants, priority
// then FIFO within a tenant, quota-capped concurrency per tenant.
type Scheduler struct {
	cfg Config

	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string          // submission order, for listing
	queues     map[string][]*Job // tenant → runnable queue
	tenants    []string          // round-robin order (first-seen order)
	rr         int               // next tenant index to offer a slot
	running    map[string]int    // tenant → slices currently executing
	maxRunning map[string]int    // high-water mark, for quota observability
	free       int               // free worker slots
	nextID     int
	draining   bool
	killed     chan struct{}
	wg         sync.WaitGroup // executing slices

	started time.Time // for /stats uptime
}

// NewScheduler creates the scheduler, rescans the state directory, and
// re-enqueues every incomplete job found there.
func NewScheduler(cfg Config) (*Scheduler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:        cfg,
		jobs:       make(map[string]*Job),
		queues:     make(map[string][]*Job),
		running:    make(map[string]int),
		maxRunning: make(map[string]int),
		free:       cfg.Workers,
		nextID:     1,
		killed:     make(chan struct{}),
		started:    time.Now(),
	}
	if err := s.rescan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.dispatchLocked()
	s.mu.Unlock()
	return s, nil
}

// Submit validates, persists, and enqueues a job. The fsync'd spec
// write happens off the scheduler lock (only the id reservation and the
// enqueue hold it) so a slow disk cannot stall dispatch, status
// listing, or slice completions behind a submission.
func (s *Scheduler) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.normalize(s.cfg.CheckpointEvery); err != nil {
		return JobStatus{}, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("serve: scheduler is shutting down")
	}
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	s.mu.Unlock()

	j := newJob(id, s.cfg.StateDir, spec, specJSON, s.metricsInterval())
	if err := persistSpec(j); err != nil {
		return JobStatus{}, err
	}

	s.mu.Lock()
	if s.draining {
		// A drain started while we were writing the spec; a restart would
		// resurrect a job the caller was told failed, so take it back.
		s.mu.Unlock()
		os.Remove(j.specPath())
		return JobStatus{}, fmt.Errorf("serve: scheduler is shutting down")
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.enqueueLocked(j)
	s.dispatchLocked()
	s.mu.Unlock()
	j.persistStatus()
	return j.Status(), nil
}

// enqueueLocked inserts the job into its tenant's queue: descending
// priority, FIFO within equal priority.
func (s *Scheduler) enqueueLocked(j *Job) {
	t := j.Spec.Tenant
	if !contains(s.tenants, t) {
		s.tenants = append(s.tenants, t)
	}
	q := s.queues[t]
	i := sort.Search(len(q), func(i int) bool { return q[i].Spec.Priority < j.Spec.Priority })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = j
	s.queues[t] = q
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// dispatchLocked hands free worker slots to runnable jobs, round-robin
// across tenants, skipping tenants at their quota.
func (s *Scheduler) dispatchLocked() {
	if s.draining || s.isKilled() || len(s.tenants) == 0 {
		return
	}
	for s.free > 0 {
		j := s.pickLocked()
		if j == nil {
			return
		}
		t := j.Spec.Tenant
		s.running[t]++
		if s.running[t] > s.maxRunning[t] {
			s.maxRunning[t] = s.running[t]
		}
		s.free--
		s.wg.Add(1)
		go s.slice(j)
	}
}

// pickLocked selects the next job: the first tenant in round-robin order
// with queued work and headroom under its quota.
func (s *Scheduler) pickLocked() *Job {
	n := len(s.tenants)
	for i := 0; i < n; i++ {
		idx := (s.rr + i) % n
		t := s.tenants[idx]
		q := s.queues[t]
		if len(q) == 0 || s.running[t] >= s.cfg.TenantQuota {
			continue
		}
		j := q[0]
		s.queues[t] = q[1:]
		s.rr = (idx + 1) % n
		return j
	}
	return nil
}

// metricsInterval resolves the per-job telemetry cadence: negative
// disables (jobs get no recorder), otherwise the configured interval.
func (s *Scheduler) metricsInterval() time.Duration {
	if s.cfg.MetricsInterval < 0 {
		return -1
	}
	return s.cfg.MetricsInterval
}

// slice executes one scheduling turn of a job on a pool worker.
func (s *Scheduler) slice(j *Job) {
	defer s.wg.Done()
	j.publishState(StateRunning, "")
	// Publish the tenant's current queue depth into the job's telemetry
	// vector: the gauge every sample carries of how contended the
	// job's tenant was while it ran.
	if rec := j.Metrics(); rec != nil {
		s.mu.Lock()
		depth := len(s.queues[j.Spec.Tenant])
		s.mu.Unlock()
		rec.StoreInt(ftdc.FieldQueueDepth, int64(depth))
	}
	out := j.runSlice(s.cfg.SliceSteps, s.killed)
	s.mu.Lock()
	s.running[j.Spec.Tenant]--
	s.free++
	if out == outcomeProgress {
		if s.draining {
			// The drain will checkpoint it; leave it off the queue with a
			// queued status so a restart resumes it.
			j.publishState(StateQueued, "")
		} else {
			j.publishState(StateQueued, "")
			s.enqueueLocked(j)
		}
	}
	if out != outcomeKilled {
		s.dispatchLocked()
	}
	s.mu.Unlock()
}

// Get returns a job by id.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns job statuses in submission order, optionally filtered by
// tenant.
func (s *Scheduler) List(tenant string) []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		if tenant == "" || st.Tenant == tenant {
			out = append(out, st)
		}
	}
	return out
}

// Cancel stops a job. A queued job is finalized immediately; a running
// job stops at its next step; terminal jobs are left alone.
func (s *Scheduler) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, errNoJob(id)
	}
	j.cancelF.Store(true)
	dequeued := s.removeFromQueueLocked(j)
	s.mu.Unlock()
	if dequeued || j.Status().State == StatePaused {
		j.finalizeExternal(StateCanceled, "canceled")
	}
	return j.Status(), nil
}

// Pause parks a job: a queued job is pulled from the queue, a running
// job checkpoints and parks at its next step.
func (s *Scheduler) Pause(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, errNoJob(id)
	}
	if terminal(j.Status().State) {
		s.mu.Unlock()
		return j.Status(), fmt.Errorf("serve: job %s is %s", id, j.Status().State)
	}
	j.pauseF.Store(true)
	dequeued := s.removeFromQueueLocked(j)
	s.mu.Unlock()
	if dequeued {
		j.publishState(StatePaused, "")
		j.persistStatus()
	}
	return j.Status(), nil
}

// Resume returns a paused job to its tenant's queue.
func (s *Scheduler) Resume(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, errNoJob(id)
	}
	if st := j.Status().State; st != StatePaused {
		s.mu.Unlock()
		return j.Status(), fmt.Errorf("serve: job %s is %s, not paused", id, st)
	}
	j.pauseF.Store(false)
	j.publishState(StateQueued, "")
	s.enqueueLocked(j)
	s.dispatchLocked()
	s.mu.Unlock()
	return j.Status(), nil
}

func (s *Scheduler) removeFromQueueLocked(j *Job) bool {
	t := j.Spec.Tenant
	q := s.queues[t]
	for i, cand := range q {
		if cand == j {
			s.queues[t] = append(q[:i:i], q[i+1:]...)
			return true
		}
	}
	return false
}

func (s *Scheduler) isKilled() bool {
	select {
	case <-s.killed:
		return true
	default:
		return false
	}
}

// Stop drains the scheduler gracefully: running slices finish their
// current step loop, then every incomplete job writes a checkpoint so a
// restarted server resumes it bit-identically.
func (s *Scheduler) Stop() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.wg.Wait()
	var firstErr error
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		if err := j.CheckpointNow(); err != nil && firstErr == nil {
			firstErr = err
		}
		j.closeMetrics()
		j.closeEngines()
		j.persistStatus()
	}
	return firstErr
}

// Kill models a crash: running slices abort at their next step without
// writing anything, and nothing is checkpointed or persisted beyond what
// the periodic cadences already made durable.
func (s *Scheduler) Kill() {
	s.mu.Lock()
	select {
	case <-s.killed:
	default:
		close(s.killed)
	}
	s.mu.Unlock()
	s.wg.Wait()
	// The "crashed" process's sampler goroutines must not keep writing
	// to the state directory a restarted scheduler is about to rescan:
	// kill every recorder, abandoning buffered samples exactly as a
	// real crash would (torn tails included — OpenFile recovers them).
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.killMetrics()
		j.closeEngines()
	}
}

func errNoJob(id string) error { return fmt.Errorf("serve: no job %q", id) }

// TenantStats is one tenant's scheduling picture: queue depth and live
// concurrency from the scheduler's own bookkeeping, plus per-state job
// counts from the status snapshots.
type TenantStats struct {
	Queued     int `json:"queued"`
	Running    int `json:"running"`
	MaxRunning int `json:"max_running"` // concurrency high-water mark
	Quota      int `json:"quota"`
	Paused     int `json:"paused,omitempty"`
	Done       int `json:"done,omitempty"`
	Failed     int `json:"failed,omitempty"`
	Canceled   int `json:"canceled,omitempty"`
}

// MetricsStats aggregates the per-job FTDC telemetry server-wide.
type MetricsStats struct {
	// JobsReporting counts jobs with at least one telemetry sample.
	JobsReporting int `json:"jobs_reporting"`
	// Samples is the total in-memory sample count across those jobs.
	Samples int `json:"samples"`
	// StepsPerSec sums the latest steps/sec reading of every reporting
	// job — the server's aggregate simulation throughput.
	StepsPerSec float64 `json:"steps_per_sec"`
	// Steps sums the latest cumulative step count of every reporting job.
	Steps int64 `json:"steps"`
}

// Stats is the scheduler-wide observability snapshot.
type Stats struct {
	Workers   int                    `json:"workers"`
	Free      int                    `json:"free"`
	Jobs      int                    `json:"jobs"`
	UptimeSec float64                `json:"uptime_sec"`
	Tenants   map[string]TenantStats `json:"tenants"`
	Metrics   MetricsStats           `json:"metrics"`
}

// Stats reports queue depths, concurrency, and per-state job counts
// per tenant, server uptime, and the aggregated FTDC telemetry of
// every reporting job.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	st := Stats{Workers: s.cfg.Workers, Free: s.free, Jobs: len(s.jobs),
		UptimeSec: time.Since(s.started).Seconds(),
		Tenants:   make(map[string]TenantStats)}
	for _, t := range s.tenants {
		st.Tenants[t] = TenantStats{
			Queued:     len(s.queues[t]),
			Running:    s.running[t],
			MaxRunning: s.maxRunning[t],
			Quota:      s.cfg.TenantQuota,
		}
	}
	jobs := make([]*Job, 0, len(s.jobs))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()

	// Job statuses and recorders have their own locks; never read them
	// under s.mu (a status query must not wait on the dispatch path).
	for _, j := range jobs {
		js := j.Status()
		ts := st.Tenants[js.Tenant]
		switch js.State {
		case StatePaused:
			ts.Paused++
		case StateDone:
			ts.Done++
		case StateFailed:
			ts.Failed++
		case StateCanceled:
			ts.Canceled++
		}
		st.Tenants[js.Tenant] = ts
		if rec := j.Metrics(); rec != nil {
			if last, ok := rec.Last(); ok {
				st.Metrics.JobsReporting++
				st.Metrics.Samples += rec.SampleCount()
				st.Metrics.Steps += int64(last.Values[ftdc.FieldSteps])
				if js.State == StateRunning {
					st.Metrics.StepsPerSec += last.Values[ftdc.FieldStepsPerSec]
				}
			}
		}
	}
	return st
}
