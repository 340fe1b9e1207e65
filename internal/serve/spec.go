// Package serve turns the gonamd engines into a long-running simulation
// service: a job model that arrives as JSON and lowers onto the
// functional-options engine constructors, a bounded multi-tenant
// scheduler that multiplexes many concurrent jobs over one shared worker
// pool by time-slicing engine steps, NDJSON streaming of energies,
// trajectory frames, and Projections summaries over plain net/http, and
// crash-safe resume: every incomplete job checkpoints through
// internal/ckpt on a cadence and on graceful shutdown, and a restarted
// server rescans its state directory and continues each job
// bit-identically from its last checkpoint.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"gonamd"
	"gonamd/internal/engine"
	"gonamd/internal/ensemble"
	"gonamd/internal/molgen"
	"gonamd/internal/sysio"
)

// Limits that keep one tenant's submission from exhausting the server.
const (
	maxSteps      = 1 << 40
	maxInlineSize = 64 << 20 // 64 MiB sysio blob
)

// JobSpec is a simulation job as submitted over the wire. Exactly one
// simulation kind per job: a single-engine MD run (the default), or a
// replica-exchange ensemble when Ensemble is set.
type JobSpec struct {
	// Name is a free-form label echoed in status reports.
	Name string `json:"name,omitempty"`
	// Tenant scopes the job under the scheduler's per-tenant quotas
	// (default "default"; the X-Tenant header also sets it).
	Tenant string `json:"tenant,omitempty"`
	// Priority orders jobs within a tenant: higher runs first. Equal
	// priorities are FIFO.
	Priority int `json:"priority,omitempty"`

	// System selects what to simulate.
	System SystemSpec `json:"system"`
	// Engine configures the engine for MD jobs (ignored and rejected for
	// ensemble jobs, which manage their own per-replica engines).
	Engine gonamd.EngineSpec `json:"engine,omitempty"`
	// Ensemble, when set, makes this a replica-exchange job.
	Ensemble *EnsembleSpec `json:"ensemble,omitempty"`

	// Steps is the MD step budget (required, > 0).
	Steps int64 `json:"steps"`
	// Dt is the timestep in fs (default 0.5).
	Dt float64 `json:"dt,omitempty"`
	// Minimize runs this many steepest-descent iterations before
	// dynamics (applied identically on resume, so engine construction
	// sees the same coordinates either way).
	Minimize int `json:"minimize,omitempty"`

	// CheckpointEvery is the crash-safety cadence in steps (0 = the
	// server default). Checkpoints also happen on graceful shutdown.
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
	// FrameEvery appends a trajectory frame every so many steps
	// (0 = no trajectory; MD jobs only).
	FrameEvery int64 `json:"frame_every,omitempty"`
	// EnergyEvery emits an energy event every so many steps (default 10,
	// negative disables).
	EnergyEvery int64 `json:"energy_every,omitempty"`
	// Trace attaches a Projections trace to the job, enabling the
	// summary endpoint, the final summary event, and the JSON Lines log
	// <id>.trace written when the job ends (cmd/projections reads it).
	Trace bool `json:"trace,omitempty"`
}

// SystemSpec selects the molecular system: a molgen preset by name, or
// an uploaded topology (a sysio blob, as written by cmd/molgen -o,
// base64-encoded in JSON).
type SystemSpec struct {
	Preset string  `json:"preset,omitempty"` // water, br, apoa1, bc1
	Side   float64 `json:"side,omitempty"`   // water box edge, Å (default 12)
	Seed   uint64  `json:"seed,omitempty"`   // builder seed
	Cutoff float64 `json:"cutoff,omitempty"` // nonbonded cutoff, Å (default 9)
	Inline []byte  `json:"inline,omitempty"` // sysio blob, instead of a preset
}

// EnsembleSpec makes a job a replica-exchange ensemble: a temperature
// ladder either explicit or geometric from TMin/TMax/Replicas.
type EnsembleSpec struct {
	Replicas      int       `json:"replicas,omitempty"`
	TMin          float64   `json:"tmin,omitempty"`
	TMax          float64   `json:"tmax,omitempty"`
	Temperatures  []float64 `json:"temperatures,omitempty"` // explicit ladder overrides TMin/TMax
	ExchangeEvery int       `json:"exchange_every,omitempty"`
	Gamma         float64   `json:"gamma,omitempty"` // Langevin friction, 1/fs
	// Workers is how many replicas advance concurrently within one
	// scheduling slice (default 1, so one job occupies roughly one pool
	// worker's worth of CPU; raise it to let a single ensemble job fan
	// out across cores at the expense of other tenants' latency).
	Workers       int    `json:"workers,omitempty"`
	EngineWorkers int    `json:"engine_workers,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
}

// decodeSpec decodes one job spec strictly: a field this server does not
// know is an error naming it, never silently dropped.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// normalize validates the spec and fills defaults in place, so the
// persisted spec is self-contained and a rescan re-derives the same
// behavior. defaultCkpt is the server's checkpoint cadence.
func (s *JobSpec) normalize(defaultCkpt int64) error {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Steps <= 0 || s.Steps > maxSteps {
		return fmt.Errorf("serve: steps %d out of range (want 1..%d)", s.Steps, int64(maxSteps))
	}
	if s.Dt == 0 {
		s.Dt = 0.5
	}
	if s.Dt < 0 {
		return fmt.Errorf("serve: timestep %g fs must be positive", s.Dt)
	}
	if s.Minimize < 0 {
		return fmt.Errorf("serve: minimize %d must be ≥ 0", s.Minimize)
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("serve: checkpoint_every %d must be ≥ 0", s.CheckpointEvery)
	}
	if s.CheckpointEvery == 0 {
		s.CheckpointEvery = defaultCkpt
	}
	if s.FrameEvery < 0 {
		return fmt.Errorf("serve: frame_every %d must be ≥ 0", s.FrameEvery)
	}
	if s.EnergyEvery == 0 {
		s.EnergyEvery = 10
	}
	if err := s.System.validate(); err != nil {
		return err
	}
	if s.Ensemble != nil {
		return s.normalizeEnsemble()
	}
	return s.normalizeMD()
}

func (s *JobSpec) normalizeMD() error {
	// Apply the options' own rules at admission, so a spec that can never
	// build fails the submission instead of a queued job failing when it
	// first runs.
	if err := s.Engine.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if par, _ := s.Engine.Parallel(); par && s.Engine.RebalanceEvery == nil {
		// Measurement-based rebalancing reassigns tasks from wall-clock
		// timings, which would make a resumed run sum forces in a
		// different order than the uninterrupted one. Pin it off unless
		// the client explicitly asked for it.
		zero := 0
		s.Engine.RebalanceEvery = &zero
	}
	return nil
}

func (s *JobSpec) normalizeEnsemble() error {
	var zero gonamd.EngineSpec
	if s.Engine != zero {
		return fmt.Errorf("serve: ensemble jobs configure engines via the ensemble spec; engine must be empty")
	}
	if s.FrameEvery > 0 {
		return fmt.Errorf("serve: ensemble jobs do not write trajectories; frame_every must be 0")
	}
	e := s.Ensemble
	if len(e.Temperatures) == 0 {
		if e.Replicas < 2 {
			return fmt.Errorf("serve: ensemble needs ≥ 2 replicas (got %d)", e.Replicas)
		}
		if !(e.TMin > 0) || !(e.TMax >= e.TMin) {
			return fmt.Errorf("serve: ensemble ladder %g..%g K invalid", e.TMin, e.TMax)
		}
		e.Temperatures = gonamd.GeometricLadder(e.TMin, e.TMax, e.Replicas)
	}
	if len(e.Temperatures) < 2 {
		return fmt.Errorf("serve: ensemble needs ≥ 2 ladder rungs (got %d)", len(e.Temperatures))
	}
	for i, t := range e.Temperatures {
		if !(t > 0) {
			return fmt.Errorf("serve: ensemble temperatures[%d] = %g K must be > 0", i, t)
		}
	}
	e.Replicas = len(e.Temperatures)
	// ensemble.New refuses these too; refusing them here makes them a 400
	// instead of a job that fails when it first runs.
	if e.ExchangeEvery < 0 {
		return fmt.Errorf("serve: ensemble exchange_every %d must be ≥ 0 (0 = 100)", e.ExchangeEvery)
	}
	if e.ExchangeEvery == 0 {
		e.ExchangeEvery = 100
	}
	if !(e.Gamma >= 0) || math.IsInf(e.Gamma, 1) {
		return fmt.Errorf("serve: ensemble gamma %g /fs must be finite and ≥ 0 (0 = 0.005 /fs)", e.Gamma)
	}
	if e.Gamma == 0 {
		e.Gamma = 0.005
	}
	if e.Workers < 0 {
		return fmt.Errorf("serve: ensemble workers %d must be ≥ 0", e.Workers)
	}
	if e.Workers == 0 {
		e.Workers = 1
	}
	if e.EngineWorkers == 0 {
		// Auto-selection would give large replicas a worker pool with
		// measurement-based rebalancing on, which breaks the
		// bit-identical resume contract (see normalizeMD). Pin one
		// worker per replica; clients that want per-replica parallelism
		// opt in explicitly.
		e.EngineWorkers = 1
	}
	return nil
}

func (sp *SystemSpec) validate() error {
	if sp.Cutoff == 0 {
		sp.Cutoff = 9
	}
	if sp.Cutoff < 0 {
		return fmt.Errorf("serve: cutoff %g Å must be positive", sp.Cutoff)
	}
	if len(sp.Inline) > 0 {
		if sp.Preset != "" {
			return fmt.Errorf("serve: system has both a preset and an inline topology")
		}
		if len(sp.Inline) > maxInlineSize {
			return fmt.Errorf("serve: inline topology %d bytes exceeds the %d byte limit", len(sp.Inline), maxInlineSize)
		}
		return nil
	}
	// `"inline": ""` decodes to an empty, non-nil blob that the persisted
	// spec (omitempty) reads back as nil.
	sp.Inline = nil
	switch sp.Preset {
	case "water":
		if sp.Side == 0 {
			sp.Side = 12
		}
		if sp.Side < 4 || sp.Side > 400 {
			return fmt.Errorf("serve: water box side %g Å out of range (4..400)", sp.Side)
		}
	case "":
		return fmt.Errorf("serve: system needs a preset or an inline topology")
	}
	if _, err := molgen.Preset(sp.Preset, sp.Side, sp.Seed); err != nil {
		return fmt.Errorf("serve: unknown system preset %q (want water, br, apoa1, or bc1)", sp.Preset)
	}
	return nil
}

// build constructs the system and its initial state.
func (sp *SystemSpec) build() (*gonamd.System, *gonamd.State, error) {
	if len(sp.Inline) > 0 {
		return sysio.Load(bytes.NewReader(sp.Inline))
	}
	spec, err := molgen.Preset(sp.Preset, sp.Side, sp.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: unknown system preset %q", sp.Preset)
	}
	return gonamd.BuildSystem(spec)
}

// prepare builds the job's system and force field and, for a fresh
// start, runs the spec's minimization: everything before engine
// construction. A resume skips the minimization: the checkpoint restores
// the engine's whole state, so every position it would produce is
// overwritten, and the coordinates the engine is constructed over feed
// only its static cell→worker home map, which only opt-in rebalancing
// reads. The minimizer runs the production pipeline — one inline worker
// on cluster lists at the default geometry — and does not outlive the
// call.
func (s *JobSpec) prepare(resume bool) (*gonamd.System, *gonamd.ForceField, *gonamd.State, error) {
	sys, st, err := s.System.build()
	if err != nil {
		return nil, nil, nil, err
	}
	ff := gonamd.StandardForceField(s.System.Cutoff)
	if s.Minimize > 0 && !resume {
		m, err := gonamd.NewSequential(sys, ff, st,
			gonamd.WithClusterLists(engine.DefaultClusterM, engine.DefaultClusterN))
		if err != nil {
			return nil, nil, nil, err
		}
		m.Minimize(s.Minimize, 0.2)
		m.Close()
	}
	return sys, ff, st, nil
}

// ensembleConfig lowers the spec to an ensemble.Config; the job layer
// checkpoints the ensemble's Snapshot on its own cadence.
func (s *JobSpec) ensembleConfig() ensemble.Config {
	e := s.Ensemble
	return ensemble.Config{
		Temperatures:  e.Temperatures,
		Dt:            s.Dt,
		Gamma:         e.Gamma,
		ExchangeEvery: e.ExchangeEvery,
		Seed:          e.Seed,
		Workers:       e.Workers,
		EngineWorkers: e.EngineWorkers,
	}
}
