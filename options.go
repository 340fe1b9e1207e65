package gonamd

import (
	"fmt"
	"time"

	"gonamd/internal/engine"
	"gonamd/internal/ftdc"
	"gonamd/internal/ldb"
)

// Engine is what driving a simulation needs of the engine NewSequential
// and NewParallel construct, for callers that would rather not name the
// type. The cluster simulation (NewClusterSim) models machines rather
// than advancing real atoms and stays outside this interface.
type Engine interface {
	// Step advances one velocity-Verlet step of dt femtoseconds, with
	// every stage the engine was built with (PME impulses, SHAKE/RATTLE,
	// the thermostat). It fails when the step diverged (a non-finite
	// potential energy) or a constraint solver did not converge.
	Step(dt float64) error
	// Run advances n steps and returns the final energies, stopping at
	// the first step that fails.
	Run(n int, dt float64) (Energies, error)
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

// Option configures an engine at construction time by setting its part
// of the engine's configuration. Cross-option rules are checked once
// every option has run, so the order options are passed in never
// changes the result. The pool options (WithRebalanceEvery,
// WithLoadBalancer) return a construction error when handed to
// NewSequential.
type Option func(*engine.Config) error

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
	return func(c *engine.Config) error {
		if m < 1 || m > 8 || n < 1 || n > 8 || m*n > 64 {
			return fmt.Errorf("gonamd: cluster geometry %dx%d out of range (M, N in [1, 8], M·N ≤ 64)", m, n)
		}
		c.ClusterM, c.ClusterN = m, n
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
	return func(*engine.Config) error {
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
	return func(c *engine.Config) error {
		if gridSpacing <= 0 {
			return fmt.Errorf("gonamd: PME grid spacing %g Å must be positive", gridSpacing)
		}
		if beta < 0 {
			return fmt.Errorf("gonamd: PME beta %g Å⁻¹ must be ≥ 0 (0 = auto)", beta)
		}
		if mtsPeriod < 1 {
			return fmt.Errorf("gonamd: PME MTS period %d must be ≥ 1", mtsPeriod)
		}
		c.PME = &engine.PMEConfig{GridSpacing: gridSpacing, Beta: beta, MTSPeriod: mtsPeriod}
		return nil
	}
}

// WithTrace attaches a Projections-style trace log: every step then
// emits per-phase execution records and a step marker, analyzable with
// AnalyzeTrace or cmd/projections. The instrumentation adds no heap
// allocations to the steady-state step.
func WithTrace(l *TraceLog) Option {
	return func(c *engine.Config) error {
		c.Trace = l
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
	return func(c *engine.Config) error {
		if interval < 0 {
			return fmt.Errorf("gonamd: metrics interval %s must be ≥ 0 (0 = manual sampling)", interval)
		}
		c.Metrics = ftdc.NewEngineRecorder(interval)
		return nil
	}
}

// WithMetricsRecorder attaches a caller-constructed telemetry recorder
// (see NewMetricsRecorder) — the variant services use so they keep the
// handle for sampling, streaming, and shutdown. Nil is rejected.
func WithMetricsRecorder(rec *MetricsRecorder) Option {
	return func(c *engine.Config) error {
		if rec == nil {
			return fmt.Errorf("gonamd: WithMetricsRecorder requires a non-nil recorder (use WithMetrics to construct one)")
		}
		c.Metrics = rec
		return nil
	}
}

// WithThermostat applies the thermostat after every step (NVT dynamics).
func WithThermostat(th Thermostat) Option {
	return func(c *engine.Config) error {
		c.Thermostat = th
		return nil
	}
}

// WithRebalanceEvery sets how many steps run between the parallel
// engine's measurement-based load-balancing passes (0 disables automatic
// rebalancing; call Rebalance manually). Parallel engine only.
func WithRebalanceEvery(steps int) Option {
	return func(c *engine.Config) error {
		if steps < 0 {
			return fmt.Errorf("gonamd: rebalance interval %d must be ≥ 0", steps)
		}
		c.RebalanceEvery = &steps
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
	return func(c *engine.Config) error {
		s, err := ldb.Lookup(name)
		if err != nil {
			return err
		}
		c.LB = s
		return nil
	}
}

// WithHBondConstraints holds every bond involving hydrogen at its
// force-field equilibrium length: every Step then runs SHAKE after the
// drift and RATTLE after the closing half-kick, at any worker count.
// Incompatible with WithPME: both reshape the timestep structure, and the
// impulse-MTS PME cycle has no constraint projection.
func WithHBondConstraints() Option {
	return func(c *engine.Config) error {
		c.HBondConstraints = true
		return nil
	}
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

// applyOptions runs the options over the configuration of an engine with
// the given worker count and checks the rules that span options: every
// rule construction enforces before it looks at a system.
func applyOptions(parallel bool, workers int, opts []Option) (engine.Config, error) {
	c := engine.Config{Workers: workers}
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return c, err
		}
	}
	switch {
	case !parallel && c.RebalanceEvery != nil:
		return c, fmt.Errorf("gonamd: WithRebalanceEvery applies only to the parallel engine")
	case !parallel && c.LB != nil:
		return c, fmt.Errorf("gonamd: WithLoadBalancer applies only to the parallel engine")
	case c.HBondConstraints && c.PME != nil:
		return c, fmt.Errorf("gonamd: WithHBondConstraints and WithPME cannot be combined: the impulse-MTS PME step has no SHAKE/RATTLE projection")
	case parallel && c.ClusterM == 0:
		c.ClusterM, c.ClusterN = engine.DefaultClusterM, engine.DefaultClusterN
	}
	return c, nil
}

// newEngine applies the options and builds the engine.
func newEngine(parallel bool, sys *System, ff *ForceField, st *State, workers int, opts []Option) (*engine.Engine, error) {
	c, err := applyOptions(parallel, workers, opts)
	if err != nil {
		return nil, err
	}
	return engine.New(sys, ff, st, c)
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

// PrecisionMode names the numerical mode the spec's trajectory runs in:
// "fp64-tab" when the tabulated cluster kernel evaluates the pair
// interaction (PME on cluster lists, which every parallel engine and a
// sequential one given a geometry runs), "fp64" otherwise. Trajectories
// are bitwise reproducible within a mode but differ across modes, so
// checkpoints record this and services refuse to resume across a mode
// change.
func (s *EngineSpec) PrecisionMode() string {
	par, _ := s.Parallel()
	if s.PME != nil && (par || s.ClusterM > 0 || s.ClusterN > 0) {
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
		_, err = applyOptions(par, s.Workers, opts)
	}
	return err
}

// NewEngine constructs the engine the spec describes over the given
// system, with every option validated by the same construction rules
// NewSequential and NewParallel enforce. The extra options attach what
// does not travel over the wire — a trace log, a metrics recorder. The
// returned Thermostat is the instance the engine applies (nil for NVE);
// its state travels in the engine's Snapshot.
func (s *EngineSpec) NewEngine(sys *System, ff *ForceField, st *State, extra ...Option) (*Parallel, Thermostat, error) {
	par, th, opts, err := s.lower()
	if err != nil {
		return nil, nil, err
	}
	opts = append(opts, extra...)
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
