// Package gonamd is a from-scratch Go implementation of the parallel
// molecular dynamics system described in Brunner, Phillips & Kalé,
// "Scalable Molecular Dynamics for Large Biomolecular Systems" (SC 2000)
// — the NAMD2 scaling paper.
//
// It provides two ways to run molecular dynamics:
//
//   - a real shared-memory engine mapping the paper's compute objects —
//     per-cell runs of one M×N cluster pair list, chunks of bonded terms —
//     onto goroutine workers with measurement-based load balancing
//     (NewParallel). NewSequential is the same engine with one worker,
//     which runs inline with no goroutines: the single-processor time
//     every speedup is measured against. Given no list option it
//     evaluates the list-free reference mode the cluster path is tested
//     against,
//   - a deterministic cluster simulation that reproduces the paper's
//     evaluation — hybrid force/spatial decomposition with home and
//     proxy patches on up to thousands of simulated processors
//     (NewClusterSim), including the ASCI-Red, Cray T3E-900, and SGI
//     Origin 2000 machine models.
//
// Synthetic benchmark systems standing in for the paper's inputs
// (ApoA-I, BC1, bR) are built by BuildSystem with the corresponding
// Spec presets.
//
// Engines are configured with functional options at construction; the
// same configuration travels over the wire as an EngineSpec, the
// JSON-serializable bridge the gonamdd job server (internal/serve,
// cmd/gonamdd) uses to accept simulation jobs, multiplex them over a
// shared worker pool, stream energies and trajectory frames, and resume
// them bit-identically from internal/ckpt checkpoints after a crash.
package gonamd

import (
	"gonamd/internal/charm"
	"gonamd/internal/ckpt"
	"gonamd/internal/converse"
	"gonamd/internal/core"
	"gonamd/internal/engine"
	"gonamd/internal/ensemble"
	"gonamd/internal/forcefield"
	"gonamd/internal/ftdc"
	"gonamd/internal/ldb"
	"gonamd/internal/machine"
	"gonamd/internal/molgen"
	"gonamd/internal/pme"
	"gonamd/internal/projections"
	"gonamd/internal/seq"
	"gonamd/internal/spatial"
	"gonamd/internal/sysio"
	"gonamd/internal/thermo"
	"gonamd/internal/topology"
	"gonamd/internal/trace"
	"gonamd/internal/traj"
	"gonamd/internal/units"
	"gonamd/internal/vec"
)

// NetworkModel is the communication cost model of a simulated machine.
type NetworkModel = converse.NetworkModel

// Core molecular data types.
type (
	// System is a molecular topology: atoms, bonded terms, exclusions.
	System = topology.System
	// State holds positions and velocities.
	State = topology.State
	// V3 is the 3-vector used for positions, velocities, and forces.
	V3 = vec.V3
	// ForceField is a CHARMM-style parameter set with evaluation kernels.
	ForceField = forcefield.Params
	// Energies is a decomposed energy report.
	Energies = seq.Energies
)

// Builders.
type (
	// Spec describes a synthetic system to build.
	Spec = molgen.Spec
	// Grid is the spatial patch decomposition geometry.
	Grid = spatial.Grid
)

// The engine. Sequential and Parallel are two names of one type, kept for
// what the constructors promise: NewSequential(sys, ff, st,
// WithClusterLists(4, 8)) returns it with one inline worker,
// NewParallel(sys, ff, st, workers, WithPME(grid, beta, mts),
// WithTrace(log)) with that many workers, a goroutine pool from two up.
// It is configured at construction with functional options and
// satisfies the Engine interface.
type (
	// Sequential is the engine as NewSequential constructs it: one worker,
	// cluster pair lists with WithClusterLists, the list-free reference
	// mode without.
	Sequential = engine.Engine
	// Parallel is the engine as NewParallel constructs it.
	Parallel = engine.Engine
)

// Full electrostatics: constructing the engine with
// WithPME(gridSpacing, beta, mtsPeriod) switches it to smooth
// particle-mesh Ewald with impulse multiple timestepping. The building
// blocks are exported for analysis code and tests.
type (
	// PMERecip is the reciprocal-space smooth-PME solver (B-spline
	// spreading, 3D FFT, influence-function convolution, force gather).
	PMERecip = pme.Recip
	// PMESolver bundles the reciprocal solver with the self, background,
	// and excluded-pair corrections — the slow-force half of PME.
	PMESolver = pme.Solver
	// EwaldDirect is the O(N²·K³) conventional Ewald sum the mesh solver
	// is validated against.
	EwaldDirect = pme.Direct
)

// NewPMERecip builds a reciprocal solver with mesh spacing at most
// gridSpacing Å; NewPMERecipK takes explicit power-of-two mesh dims.
var (
	NewPMERecip  = pme.NewRecip
	NewPMERecipK = pme.NewRecipK
)

// Coulomb is the electrostatic constant (kcal·Å/mol/e²).
const Coulomb = units.Coulomb

// MinImage returns the minimum-image displacement a-b in box.
var MinImage = vec.MinImage

// Cluster simulation types.
type (
	// ClusterConfig configures a simulated parallel run.
	ClusterConfig = core.Config
	// ClusterSim is a cluster simulation instance.
	ClusterSim = core.Sim
	// ClusterResult reports a simulated run's performance.
	ClusterResult = core.Result
	// Workload is the measured work decomposition of a system on a grid.
	Workload = core.Workload
	// MachineModel is a parallel computer cost model.
	MachineModel = machine.Model
	// WorkCounts are aggregate per-step work counts.
	WorkCounts = machine.Counts
)

// Benchmark system presets (the paper's three benchmarks plus a plain
// water box for quick starts).
var (
	ApoA1Spec    = molgen.ApoA1
	BC1Spec      = molgen.BC1
	BRSpec       = molgen.BR
	WaterBoxSpec = molgen.WaterBox
)

// Cutoff is the nonbonded cutoff radius (Å) used by all paper benchmarks.
const Cutoff = molgen.Cutoff

// BuildSystem constructs a synthetic system and its initial state.
func BuildSystem(spec Spec) (*System, *State, error) { return molgen.Build(spec) }

// StandardForceField returns the CHARMM-style parameter set used by the
// synthetic systems, with the given cutoff (Å).
func StandardForceField(cutoff float64) *ForceField { return forcefield.Standard(cutoff) }

// NewGrid divides a box into cutoff-sized patches.
func NewGrid(sys *System, cutoff float64) (*Grid, error) {
	return spatial.NewGrid(sys.Box, cutoff)
}

// NewGridDims builds a patch grid with explicit per-axis patch counts
// (the paper pins ApoA-I to 7×7×5, BC1 to 9×7×6, bR to 4×3×3).
func NewGridDims(sys *System, dims [3]int, cutoff float64) (*Grid, error) {
	return spatial.NewGridDims(sys.Box, dims, cutoff)
}

// BuildWorkload measures the per-patch and per-patch-pair work of a
// system — the expensive precomputation shared by cluster simulations.
func BuildWorkload(name string, sys *System, st *State, grid *Grid, cutoff, listDist float64) (*Workload, error) {
	return core.BuildWorkload(name, sys, st, grid, cutoff, listDist)
}

// NewClusterSim builds a simulated parallel run of a workload.
func NewClusterSim(w *Workload, cfg ClusterConfig) (*ClusterSim, error) {
	return core.NewSim(w, cfg)
}

// Fault injection for cluster simulations.
type (
	// FaultPlan is a seeded, deterministic schedule of message faults
	// (drop/delay/duplicate/reorder) and PE crash/restart events.
	FaultPlan = converse.FaultPlan
	// PECrash schedules one simulated-processor crash inside a FaultPlan.
	PECrash = converse.Crash
	// FaultStats counts the faults a simulated run actually suffered.
	FaultStats = converse.FaultStats
	// ReliableStats counts ack/retry protocol activity when
	// ClusterConfig.Reliable is set.
	ReliableStats = charm.ReliableStats
)

// WithFaultPlan returns cfg configured to run under the fault plan with
// the machinery needed to survive it: reliable entry-method delivery
// (acks, retransmission, duplicate suppression) and periodic coordinated
// checkpoints to roll back to after a PE crash.
func WithFaultPlan(cfg ClusterConfig, plan *FaultPlan) ClusterConfig {
	cfg.Faults = plan
	cfg.Reliable = true
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 2
	}
	return cfg
}

// ErrInjectedFailure is returned by Ensemble.Run when
// EnsembleConfig.FailAt is reached — the chaos harness's injected crash.
var ErrInjectedFailure = ensemble.ErrInjectedFailure

// Temperature control and constraints for NVT / long-timestep dynamics.
type (
	// Thermostat adjusts velocities toward a target temperature.
	Thermostat = thermo.Thermostat
	// Rescale is a hard velocity-rescaling thermostat.
	Rescale = thermo.Rescale
	// Berendsen is the weak-coupling thermostat.
	Berendsen = thermo.Berendsen
	// Langevin is a stochastic thermostat with a deterministic stream.
	Langevin = thermo.Langevin
	// Constraints holds SHAKE/RATTLE bond constraints.
	Constraints = engine.Constraints
)

// NewHBondConstraints constrains every bond involving hydrogen to its
// force-field equilibrium length, enabling ~2 fs timesteps via
// StepConstrained at any worker count.
func NewHBondConstraints(sys *System, ff *ForceField) (*Constraints, error) {
	return engine.NewHBondConstraints(sys, func(typ int32) float64 { return ff.BondTypes[typ].R0 })
}

// Trajectory I/O.
type (
	// TrajWriter streams binary trajectory frames.
	TrajWriter = traj.Writer
	// TrajReader decodes binary trajectories.
	TrajReader = traj.Reader
	// TrajFrame is one decoded frame.
	TrajFrame = traj.Frame
)

// NewTrajWriter and NewTrajReader open trajectory streams; RDF and MSD
// are the standard analyses over decoded frames.
var (
	NewTrajWriter = traj.NewWriter
	NewTrajReader = traj.NewReader
	RDF           = traj.RDF
	MSD           = traj.MSD
)

// SaveSystem and LoadSystem persist built systems (gzip+gob), so
// expensive synthetic builds can be generated once and reused.
var (
	SaveSystem = sysio.Save
	LoadSystem = sysio.Load
)

// Replica-exchange ensembles: N replicas on a temperature ladder,
// advanced concurrently with periodic Metropolis exchanges, deterministic
// per seed, checkpointable, and traced per replica.
type (
	// Ensemble is a replica-exchange run (create with NewEnsemble; Run,
	// Checkpoint, and Resume drive it).
	Ensemble = ensemble.Ensemble
	// EnsembleConfig describes the ladder, schedule, and worker pool.
	EnsembleConfig = ensemble.Config
	// EnsembleReplica is one rung of a running ensemble.
	EnsembleReplica = ensemble.Replica
	// EnsembleCheckpoint is a decoded whole-ensemble snapshot.
	EnsembleCheckpoint = ckpt.EnsembleState
	// TraceLog collects Projections-style execution records; pass one in
	// EnsembleConfig.Trace to instrument an ensemble.
	TraceLog = trace.Log
)

// NewEnsemble builds a replica-exchange ensemble over the system: one
// replica per ladder rung, each starting from a copy of st.
func NewEnsemble(sys *System, ff *ForceField, st *State, cfg EnsembleConfig) (*Ensemble, error) {
	return ensemble.New(sys, ff, st, cfg)
}

// GeometricLadder spaces n temperatures geometrically from tmin to tmax
// (the standard REMD ladder); NewTraceLog creates an enabled trace log;
// LoadCheckpoint and LoadCheckpointFile decode ensemble checkpoints, and
// SaveCheckpointFile writes one atomically (temp file + rename).
var (
	GeometricLadder    = ensemble.GeometricLadder
	NewTraceLog        = trace.NewLog
	LoadCheckpoint     = ckpt.Load
	LoadCheckpointFile = ckpt.LoadFile
	SaveCheckpointFile = ckpt.SaveFile
)

// Performance analysis (internal/projections): streaming Projections-
// style analysis over trace logs — per-category time profiles that sum
// exactly to recorded busy time, per-PE utilization, grainsize
// histograms, and step-time series, as text tables, versioned JSON, and
// ASCII utilization charts.
type (
	// ProjectionsReport is a complete analysis of one trace.
	ProjectionsReport = projections.Report
	// ProjectionsOptions controls analysis (PE count override, histogram
	// bins, entry table size, step series retention).
	ProjectionsOptions = projections.Options
	// ProjectionsAnalyzer consumes execution records one at a time, for
	// traces too large to materialize.
	ProjectionsAnalyzer = projections.Analyzer
	// LoadBalanceStats is one balancing pass's evaluation (max/avg load,
	// imbalance, proxy count), as recorded in ClusterResult.LBStats.
	LoadBalanceStats = ldb.Stats
)

// Pluggable load balancing (internal/ldb): strategies are selected by
// registry name — "greedy+refine" (centralized initial balance plus
// refinement), "refine-only" (the paper's incremental balancer),
// "hierarchical" (per-group refinement plus a cross-group pass over
// group-aggregate loads, for 1024+ PEs), "diffusion" (neighbor
// averaging), and "none". A ClusterConfig takes a strategy directly in
// its LB field; the parallel engine takes one via WithLoadBalancer; job
// specs name one in EngineSpec.LBStrategy.
type (
	// LBStrategy maps migratable compute objects onto processors.
	LBStrategy = ldb.Strategy
	// UnknownLBStrategyError is returned by LookupLBStrategy for an
	// unrecognized name; it lists the valid names.
	UnknownLBStrategyError = ldb.UnknownStrategyError
)

// LookupLBStrategy resolves a registry name to a fresh strategy,
// returning an *UnknownLBStrategyError (listing the valid names) for
// unknown names; LBStrategyNames lists the registry.
var (
	LookupLBStrategy = ldb.Lookup
	LBStrategyNames  = ldb.Names
)

// AnalyzeTrace analyzes an in-memory trace log; AnalyzeTraceReader
// streams a JSONL trace file (as written by TraceLog.WriteJSON) without
// materializing it; LBReport formats balancing passes as a
// before/after table; UtilizationGantt renders the utilization-vs-time
// ASCII chart of the paper's Figures 5–6.
var (
	AnalyzeTrace       = projections.Analyze
	AnalyzeTraceReader = projections.AnalyzeReader
	LBReport           = projections.LBReport
	UtilizationGantt   = projections.UtilizationGantt
)

// Always-on FTDC-style telemetry (internal/ftdc): engines publish a
// flat metric vector (steps, per-phase seconds, rebuilds, imbalance,
// GC stats) into a lock-free recorder; samples persist in a compact
// chunked delta-of-delta format with a JSONL fallback, render with
// cmd/projections -ftdc, and stream live per job from the gonamdd
// server (GET /jobs/{id}/metrics). Attach one with WithMetrics or
// WithMetricsRecorder.
type (
	// MetricsRecorder is the live ring-buffer telemetry recorder.
	MetricsRecorder = ftdc.Recorder
	// MetricsSchema names and types the metric vector.
	MetricsSchema = ftdc.Schema
	// MetricsSample is one observation of the vector.
	MetricsSample = ftdc.Sample
	// MetricsFileWriter persists samples to a chunked FTDC file with
	// crash-safe append (Sync at checkpoints, recover on reopen).
	MetricsFileWriter = ftdc.FileWriter
)

// NewMetricsRecorder builds a recorder over the standard engine metric
// schema (interval 0 = manual SampleNow); CreateMetricsFile and
// OpenMetricsFile manage on-disk FTDC files (Open recovers torn tails
// and appends); ReadMetricsFile decodes one, tolerating a torn tail;
// EngineMetricsSchema is the schema the engines publish under.
var (
	NewMetricsRecorder  = ftdc.NewEngineRecorder
	CreateMetricsFile   = ftdc.CreateFile
	OpenMetricsFile     = ftdc.OpenFile
	ReadMetricsFile     = ftdc.ReadFile
	EngineMetricsSchema = ftdc.EngineSchema
)

// Machine models, calibrated from the paper's Table 1 using the ApoA-I
// workload's counts.
var (
	ASCIRed    = machine.ASCIRed
	T3E        = machine.T3E
	Origin2000 = machine.Origin2000
)

// CalibrateMachine builds a custom machine model: cpuFactor scales all
// CPU costs relative to ASCI-Red.
var CalibrateMachine = machine.Calibrate
