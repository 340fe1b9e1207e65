package gonamd

import (
	"fmt"
	"time"

	"gonamd/internal/engine"
	"gonamd/internal/ftdc"
	"gonamd/internal/ldb"
	"gonamd/internal/thermo"
	"gonamd/internal/trace"
)

// Engine is what driving a simulation needs of the engine NewSequential
// and NewParallel construct, for callers that would rather not name the
// type. The cluster simulation (NewClusterSim) models machines rather
// than advancing real atoms and stays outside this interface.
type Engine interface {
	// Step advances one velocity-Verlet step of dt femtoseconds.
	Step(dt float64)
	// Run advances n steps and returns the final energies.
	Run(n int, dt float64) Energies
	// ComputeForces evaluates forces at the current positions.
	ComputeForces() Energies
	// Energies returns the last evaluation's energies plus current kinetic.
	Energies() Energies
	// Forces returns the engine-owned force array from the last evaluation.
	Forces() []V3
	// Invalidate marks cached forces stale after external position edits.
	Invalidate()
	// Kinetic returns the kinetic energy in kcal/mol.
	Kinetic() float64
	// Temperature returns the instantaneous temperature in K.
	Temperature() float64
	// System returns the engine's topology.
	System() *System
	// State returns the engine's mutable positions and velocities.
	State() *State
}

var _ Engine = (*Parallel)(nil)

// engineOptions accumulates the configuration the options record. All
// validation that spans options (or needs the force field) happens after
// every option has run, so option order never matters.
type engineOptions struct {
	// parallel tells which constructor is applying the options, so the
	// options that only tune a worker pool (WithRebalanceEvery,
	// WithLoadBalancer) can reject NewSequential by name.
	parallel bool

	// Cluster pair list geometry; 0×0 = not given (sequential: the
	// list-free reference mode; parallel: the default geometry).
	clusterM, clusterN int

	pmeSet  bool
	pmeGrid float64
	pmeBeta float64 // 0 = auto (3.12/cutoff, erfc(3.12) ≈ 1e-5 at the cutoff)
	pmeMTS  int

	trace      *trace.Log
	metrics    *ftdc.Recorder
	thermostat thermo.Thermostat

	rebalanceEvery    int
	rebalanceEverySet bool

	lb ldb.Strategy // par: task-to-worker balancing strategy, nil = default

	hbond bool
}

// Option configures an engine at construction time. Options are applied
// by NewSequential and NewParallel in a fixed internal order, so the
// order they are passed in never changes the result. The pool options
// (WithRebalanceEvery, WithLoadBalancer) return a construction error
// when handed to NewSequential.
type Option func(*engineOptions) error

// WithClusterLists selects the production nonbonded path — M×N cluster
// pair lists (GROMACS-style) — and its geometry: atoms pack into spatial
// clusters of M (i-side) and N (j-side) consecutive slots, the Verlet
// list pairs clusters instead of atoms with a per-pair interaction
// bitmask, and the kernel evaluates each M×N tile with the pair
// invariants hoisted. M and N must be in [1, 8] with M·N ≤ 64 (typical:
// 4×8). The list carries a 1.5 Å skin and rebuilds under the skin/2
// drift rule. The kernel follows the electrostatics: analytic under the
// shifted cutoff, tabulated under WithPME.
//
// The engine decomposes the list by spatial cell with a deterministic
// reduction, so runs are bitwise reproducible for a fixed worker count.
// NewParallel always runs cluster lists (4×8 when this option is absent);
// NewSequential without this option evaluates the list-free cell-walk
// reference mode, the oracle the cluster path is tested against.
func WithClusterLists(m, n int) Option {
	return func(o *engineOptions) error {
		if m < 1 || m > 8 || n < 1 || n > 8 || m*n > 64 {
			return fmt.Errorf("gonamd: cluster geometry %dx%d out of range (M, N in [1, 8], M·N ≤ 64)", m, n)
		}
		o.clusterM, o.clusterN = m, n
		return nil
	}
}

// WithTabulatedKernels does nothing beyond validating spacing: the
// engines choose the tabulated kernel themselves, at the default table
// spacing, exactly when the electrostatics are Ewald (WithPME on the
// cluster path), which is where the table wins.
//
// Deprecated: kept only because benchmark/md.go, which this repository's
// benchmark freezes, still passes WithTabulatedKernels(0) next to
// WithPME. Delete that call in a benchmark-only change, then this
// function.
func WithTabulatedKernels(spacing float64) Option {
	return func(*engineOptions) error {
		if spacing < 0 || spacing != spacing {
			return fmt.Errorf("gonamd: table spacing %g Å² must be ≥ 0", spacing)
		}
		return nil
	}
}

// WithPME enables smooth particle-mesh Ewald full electrostatics: erfc
// real space inside the cutoff plus a reciprocal mesh sum on a grid of
// at most gridSpacing Å per point, evaluated once every mtsPeriod steps
// as an impulse (1 = every step). beta is the Ewald splitting parameter
// in Å⁻¹; pass 0 to choose it from the cutoff (3.12/cutoff, which makes
// the real-space term negligible at the cutoff).
func WithPME(gridSpacing, beta float64, mtsPeriod int) Option {
	return func(o *engineOptions) error {
		if gridSpacing <= 0 {
			return fmt.Errorf("gonamd: PME grid spacing %g Å must be positive", gridSpacing)
		}
		if beta < 0 {
			return fmt.Errorf("gonamd: PME beta %g Å⁻¹ must be ≥ 0 (0 = auto)", beta)
		}
		if mtsPeriod < 1 {
			return fmt.Errorf("gonamd: PME MTS period %d must be ≥ 1", mtsPeriod)
		}
		o.pmeSet = true
		o.pmeGrid = gridSpacing
		o.pmeBeta = beta
		o.pmeMTS = mtsPeriod
		return nil
	}
}

// WithTrace attaches a Projections-style trace log: every step then
// emits per-phase execution records and a step marker, analyzable with
// AnalyzeTrace or cmd/projections. The instrumentation adds no heap
// allocations to the steady-state step.
func WithTrace(l *TraceLog) Option {
	return func(o *engineOptions) error {
		o.trace = l
		return nil
	}
}

// WithMetrics attaches always-on FTDC telemetry sampled on the given
// interval: the engine publishes its metric vector (step count,
// per-phase busy seconds, rebuild count, load imbalance) into a
// lock-free slot array after every step, and a background sampler
// goroutine snapshots it into a ring buffer every interval. The step
// path stays allocation-free; the sampler costs O(fields) per tick.
// Retrieve the recorder with Sequential.Metrics / Parallel.Metrics to
// subscribe, read history, or attach an on-disk sink. An interval of 0
// disables the background sampler (call Recorder.SampleNow manually);
// negative intervals are rejected. Composes with WithTrace: with a
// trace attached the phase times feed both; without one a bounded
// timing-only accumulator is installed.
func WithMetrics(interval time.Duration) Option {
	return func(o *engineOptions) error {
		if interval < 0 {
			return fmt.Errorf("gonamd: metrics interval %s must be ≥ 0 (0 = manual sampling)", interval)
		}
		o.metrics = ftdc.NewEngineRecorder(interval)
		return nil
	}
}

// WithMetricsRecorder attaches a caller-constructed telemetry recorder
// (see NewMetricsRecorder) — the variant services use so they keep the
// handle for sampling, streaming, and shutdown. Nil is rejected.
func WithMetricsRecorder(rec *MetricsRecorder) Option {
	return func(o *engineOptions) error {
		if rec == nil {
			return fmt.Errorf("gonamd: WithMetricsRecorder requires a non-nil recorder (use WithMetrics to construct one)")
		}
		o.metrics = rec
		return nil
	}
}

// WithThermostat applies the thermostat after every step (NVT dynamics).
func WithThermostat(th Thermostat) Option {
	return func(o *engineOptions) error {
		o.thermostat = th
		return nil
	}
}

// WithRebalanceEvery sets how many steps run between the parallel
// engine's measurement-based load-balancing passes (0 disables automatic
// rebalancing; call Rebalance manually). Parallel engine only.
func WithRebalanceEvery(steps int) Option {
	return func(o *engineOptions) error {
		if !o.parallel {
			return fmt.Errorf("gonamd: WithRebalanceEvery applies only to the parallel engine")
		}
		if steps < 0 {
			return fmt.Errorf("gonamd: rebalance interval %d must be ≥ 0", steps)
		}
		o.rebalanceEvery = steps
		o.rebalanceEverySet = true
		return nil
	}
}

// WithLoadBalancer selects the parallel engine's load-balancing
// strategy by registry name (see LBStrategyNames: "greedy+refine",
// "refine-only", "hierarchical", "diffusion", "none"). The strategy
// decides how nonbonded tasks are reassigned to workers on each
// measurement-based rebalancing pass (see WithRebalanceEvery). An
// unknown name fails construction with an *UnknownLBStrategyError
// listing the valid names. Parallel engine only.
func WithLoadBalancer(name string) Option {
	return func(o *engineOptions) error {
		if !o.parallel {
			return fmt.Errorf("gonamd: WithLoadBalancer applies only to the parallel engine")
		}
		s, err := ldb.Lookup(name)
		if err != nil {
			return err
		}
		o.lb = s
		return nil
	}
}

// WithHBondConstraints builds SHAKE/RATTLE constraints for every bond
// involving hydrogen, fixed at the force-field equilibrium length, and
// attaches them to the engine (retrieve with Constraints and drive with
// StepConstrained), at any worker count. Incompatible with WithPME: both
// reshape the timestep structure, and the impulse-MTS PME step has no
// constraint projection.
func WithHBondConstraints() Option {
	return func(o *engineOptions) error {
		o.hbond = true
		return nil
	}
}

// validate enforces the cross-option constraints once all options ran.
func (o *engineOptions) validate() error {
	if o.hbond && o.pmeSet {
		return fmt.Errorf("gonamd: WithHBondConstraints and WithPME cannot be combined: the impulse-MTS PME step has no SHAKE/RATTLE projection")
	}
	return nil
}

// NewSequential creates the engine with one worker, which runs inline on
// the calling goroutine, configured by the options (WithClusterLists,
// WithPME, WithTrace, WithMetrics, WithThermostat, WithHBondConstraints).
// With no WithClusterLists it runs the list-free reference mode.
func NewSequential(sys *System, ff *ForceField, st *State, opts ...Option) (*Sequential, error) {
	return newEngine(false, sys, ff, st, 1, opts)
}

// NewParallel creates the engine with the given number of goroutine
// workers (0 = all cores), configured by the options (WithClusterLists,
// WithPME, WithTrace, WithMetrics, WithThermostat, WithRebalanceEvery,
// WithLoadBalancer, WithHBondConstraints). Close it when done: the
// workers are parked goroutines that otherwise live as long as the
// process.
func NewParallel(sys *System, ff *ForceField, st *State, workers int, opts ...Option) (*Parallel, error) {
	return newEngine(true, sys, ff, st, workers, opts)
}

// applyOptions runs the options and their cross-option checks: every
// rule construction enforces before it looks at a system.
func applyOptions(parallel bool, opts []Option) (engineOptions, error) {
	o := engineOptions{parallel: parallel}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return o, err
		}
	}
	return o, o.validate()
}

// newEngine is the one construction body: apply and validate the options,
// then build the engine with the given worker count.
func newEngine(parallel bool, sys *System, ff *ForceField, st *State, workers int, opts []Option) (*engine.Engine, error) {
	o, err := applyOptions(parallel, opts)
	if err != nil {
		return nil, err
	}
	if parallel && o.clusterM == 0 {
		o.clusterM, o.clusterN = engine.DefaultClusterM, engine.DefaultClusterN
	}
	e, err := engine.New(sys, ff, st, workers, o.clusterM, o.clusterN)
	if err != nil {
		return nil, err
	}
	e.Thermo = o.thermostat
	if o.rebalanceEverySet {
		e.RebalanceEvery = o.rebalanceEvery
	}
	e.LB = o.lb
	if o.pmeSet {
		if err := engine.EnableFullElectrostatics(e, o.pmeGrid, o.betaOrAuto(ff), o.pmeMTS); err != nil {
			return nil, err
		}
	}
	if o.hbond {
		c, err := NewHBondConstraints(sys, ff)
		if err != nil {
			return nil, err
		}
		e.SetConstraints(c)
	}
	if o.trace != nil {
		e.SetTrace(o.trace)
	}
	if o.metrics != nil {
		e.SetMetrics(o.metrics)
	}
	return e, nil
}

// betaOrAuto resolves the Ewald splitting parameter: an explicit value
// passes through; 0 derives it from the cutoff so that the real-space
// term is negligible (erfc(3.12) ≈ 1e-5) at the cutoff.
func (o *engineOptions) betaOrAuto(ff *ForceField) float64 {
	if o.pmeBeta > 0 {
		return o.pmeBeta
	}
	return 3.12 / ff.Cutoff
}

// EngineSpec is the wire form of an engine configuration: a
// JSON-serializable description that maps 1:1 onto the functional
// options, so services (the gonamdd job server) can accept engine
// configuration over the network, validate it with the same rules the
// options enforce, and construct the engine with NewEngine. The zero
// value describes a plain sequential NVE engine.
type EngineSpec struct {
	// Engine selects the engine: "sequential"/"seq" (default) or
	// "parallel"/"par".
	Engine string `json:"engine,omitempty"`
	// Workers is the parallel engine's goroutine count (0 = all cores).
	Workers int `json:"workers,omitempty"`
	// ClusterM/ClusterN select M×N cluster pair lists; see
	// WithClusterLists for the geometry constraints and for what 0×0
	// means on each engine.
	ClusterM int `json:"cluster_m,omitempty"`
	ClusterN int `json:"cluster_n,omitempty"`
	// PME enables smooth particle-mesh Ewald full electrostatics.
	PME *PMESpec `json:"pme,omitempty"`
	// RebalanceEvery, when non-nil, overrides the parallel engine's
	// load-balancing interval (0 disables rebalancing; nil keeps the
	// engine default). Measurement-based rebalancing changes the
	// task-to-worker assignment from wall-clock timings, so services
	// that promise bit-identical crash resume pin this to 0.
	RebalanceEvery *int `json:"rebalance_every,omitempty"`
	// LBStrategy names the parallel engine's load-balancing strategy
	// (see LBStrategyNames; "" keeps the engine default,
	// "greedy+refine"). Unknown names are rejected with an error listing
	// the valid ones — services validate this at admission time.
	LBStrategy string `json:"lb_strategy,omitempty"`
	// Thermostat, when non-nil, selects NVT dynamics.
	Thermostat *ThermostatSpec `json:"thermostat,omitempty"`
	// HBondConstraints enables SHAKE/RATTLE on bonds to hydrogen
	// (either engine, incompatible with PME).
	HBondConstraints bool `json:"hbond_constraints,omitempty"`
}

// PMESpec is the wire form of WithPME.
type PMESpec struct {
	GridSpacing float64 `json:"grid_spacing"`         // Å per mesh point, ≤
	Beta        float64 `json:"beta,omitempty"`       // Å⁻¹, 0 = auto from cutoff
	MTSPeriod   int     `json:"mts_period,omitempty"` // impulse-MTS period, 0 = 1
}

// ThermostatSpec is the wire form of WithThermostat.
type ThermostatSpec struct {
	Kind        string  `json:"kind"`               // "rescale", "berendsen", "langevin"
	Temperature float64 `json:"temperature"`        // target, K
	Interval    int     `json:"interval,omitempty"` // rescale: steps between rescales (default 10)
	Tau         float64 `json:"tau,omitempty"`      // berendsen: coupling constant, fs (default 100)
	Gamma       float64 `json:"gamma,omitempty"`    // langevin: friction, 1/fs (default 0.005)
	Seed        uint64  `json:"seed,omitempty"`     // langevin: noise stream seed
}

// New constructs the thermostat the spec describes.
func (t *ThermostatSpec) New() (Thermostat, error) {
	if !(t.Temperature > 0) {
		return nil, fmt.Errorf("gonamd: thermostat temperature %g K must be positive", t.Temperature)
	}
	switch t.Kind {
	case "rescale":
		iv := t.Interval
		if iv == 0 {
			iv = 10
		}
		return &Rescale{Target: t.Temperature, Interval: iv}, nil
	case "berendsen":
		tau := t.Tau
		if tau == 0 {
			tau = 100
		}
		return &Berendsen{Target: t.Temperature, Tau: tau}, nil
	case "langevin":
		gamma := t.Gamma
		if gamma == 0 {
			gamma = 0.005
		}
		return &Langevin{Target: t.Temperature, Gamma: gamma, Seed: t.Seed}, nil
	default:
		return nil, fmt.Errorf("gonamd: unknown thermostat kind %q (want rescale, berendsen, or langevin)", t.Kind)
	}
}

// UsesLists reports whether the spec's engine evaluates nonbonded forces
// over a cluster pair list: every parallel engine does, and a sequential
// one given a geometry. Such engines carry list history — forces depend
// on where the current list was built, not just on the current positions
// — so services that promise bit-identical crash resume rebase them on
// every checkpoint (Invalidate + ResetLists; see the job server). Only
// the sequential reference path is list-free.
func (s *EngineSpec) UsesLists() bool {
	par, _ := s.Parallel()
	return par || s.ClusterM > 0 || s.ClusterN > 0
}

// PrecisionMode names the numerical mode the spec's trajectory runs in:
// "fp64-tab" when the tabulated cluster kernel evaluates the pair
// interaction (cluster lists with PME), "fp64" otherwise. Trajectories
// are bitwise reproducible within a mode but differ across modes, so
// checkpoints record this and services refuse to resume across a mode
// change.
func (s *EngineSpec) PrecisionMode() string {
	if s.UsesLists() && s.PME != nil {
		return "fp64-tab"
	}
	return "fp64"
}

// Parallel reports whether the spec selects the parallel engine.
func (s *EngineSpec) Parallel() (bool, error) {
	switch s.Engine {
	case "", "seq", "sequential":
		return false, nil
	case "par", "parallel":
		return true, nil
	default:
		return false, fmt.Errorf("gonamd: unknown engine %q (want sequential or parallel)", s.Engine)
	}
}

// lower resolves the engine kind, constructs the thermostat (nil for
// NVE) and lowers the rest of the spec to functional options.
func (s *EngineSpec) lower() (par bool, th Thermostat, opts []Option, err error) {
	if par, err = s.Parallel(); err != nil {
		return false, nil, nil, err
	}
	if s.Thermostat != nil {
		if th, err = s.Thermostat.New(); err != nil {
			return false, nil, nil, err
		}
		opts = append(opts, WithThermostat(th))
	}
	if s.PME != nil {
		mts := s.PME.MTSPeriod
		if mts == 0 {
			mts = 1
		}
		opts = append(opts, WithPME(s.PME.GridSpacing, s.PME.Beta, mts))
	}
	if s.ClusterM > 0 || s.ClusterN > 0 {
		opts = append(opts, WithClusterLists(s.ClusterM, s.ClusterN))
	}
	if s.RebalanceEvery != nil {
		opts = append(opts, WithRebalanceEvery(*s.RebalanceEvery))
	}
	if s.LBStrategy != "" {
		opts = append(opts, WithLoadBalancer(s.LBStrategy))
	}
	if s.HBondConstraints {
		opts = append(opts, WithHBondConstraints())
	}
	return par, th, opts, nil
}

// Validate checks the spec against every rule NewEngine enforces before
// it needs a system — engine kind, thermostat, each option and their
// combinations — without building anything, so a service can refuse at
// admission a spec that could never run.
func (s *EngineSpec) Validate() error {
	par, _, opts, err := s.lower()
	if err == nil {
		_, err = applyOptions(par, opts)
	}
	return err
}

// NewEngine constructs the engine the spec describes over the given
// system, with every option validated by the same construction rules
// NewSequential and NewParallel enforce. The returned Thermostat is the
// instance the engine applies (nil for NVE) — exposed so callers that
// checkpoint, like the job server, can snapshot and restore a Langevin
// noise stream.
func (s *EngineSpec) NewEngine(sys *System, ff *ForceField, st *State) (*Parallel, Thermostat, error) {
	par, th, opts, err := s.lower()
	if err != nil {
		return nil, nil, err
	}
	var eng *Parallel
	if par {
		eng, err = NewParallel(sys, ff, st, s.Workers, opts...)
	} else {
		eng, err = NewSequential(sys, ff, st, opts...)
	}
	if err != nil {
		return nil, nil, err
	}
	return eng, th, nil
}
