// Package ensemble orchestrates replica-exchange molecular dynamics
// (parallel tempering): N replicas of one system run at the rungs of a
// temperature ladder, each under its own Langevin thermostat, advancing
// concurrently on a bounded worker pool; every ExchangeEvery steps,
// neighboring rungs attempt a Metropolis swap of configurations, letting
// low-temperature replicas escape local minima through excursions at high
// temperature (RepEx-style ensemble parallelism layered over the paper's
// single-run engines).
//
// Everything that influences the trajectory — per-replica Langevin noise
// streams, the exchange decision stream, and the exchange schedule — is
// deterministic given Config.Seed, so whole-ensemble runs are
// bit-reproducible, and the complete dynamic state snapshots into an
// internal/ckpt payload (Snapshot) from which Restore continues
// bit-for-bit. The package is a stepper only: when to checkpoint, where
// to write, and how to recover belong to the layer that runs it (the
// gonamdd job server, internal/serve).
// Per-replica step timing and every exchange decision are recorded into an
// internal/trace log, so the same Projections-style analyses the paper
// applies to one run (timelines, utilization, summary profiles) cover
// ensembles too.
package ensemble

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"gonamd/internal/ckpt"
	"gonamd/internal/engine"
	"gonamd/internal/forcefield"
	"gonamd/internal/thermo"
	"gonamd/internal/topology"
	"gonamd/internal/trace"
	"gonamd/internal/units"
	"gonamd/internal/vec"
	"gonamd/internal/xrand"
)

// parAtomThreshold is the replica size from which auto-selection gives
// each replica's engine a worker per core: below it, per-replica
// parallelism costs more in synchronization than it buys, and replica-level
// parallelism across the pool already uses the cores.
const parAtomThreshold = 25000

// Config describes a replica-exchange run.
type Config struct {
	// Temperatures is the ladder, one replica per rung, in K. Rung order
	// defines exchange neighbors; ascending ladders are conventional.
	Temperatures []float64

	// Dt is the timestep in fs (default 0.5).
	Dt float64

	// Gamma is the Langevin friction in 1/fs (default 0.005).
	Gamma float64

	// ExchangeEvery is how many MD steps run between exchange attempts
	// (default 100; negative is refused).
	ExchangeEvery int

	// Seed determines every random stream in the ensemble: the exchange
	// decisions and each replica's thermostat noise.
	Seed uint64

	// Workers bounds how many replicas advance concurrently
	// (0 = min(NumCPU, replicas)).
	Workers int

	// EngineWorkers is each replica's engine worker count: 0 = auto (one
	// inline worker below ~25k atoms, one per core above), 1 = always one,
	// >1 = that many. Every replica runs on M×N cluster pair lists at the
	// default geometry, and a checkpoint carries each engine's whole
	// state, so one-worker replicas resume bit for bit. Multi-worker
	// replicas rebalance their tasks on measured wall-clock times, which a
	// checkpoint does not carry, and resume within reduction tolerance.
	EngineWorkers int

	// Trace, when non-nil and enabled, receives per-replica step-timing
	// records (entry "replica.advance", PE = replica index) and exchange
	// decisions (entries "exchange.accept"/"exchange.reject", PE = lower
	// rung of the attempted pair).
	Trace *trace.Log
}

// Replica is one rung of the ladder: a full system state plus the engine
// (and its Langevin thermostat) advancing it.
type Replica struct {
	Index int
	Temp  float64 // ladder temperature, K

	st  *topology.State
	eng *engine.Engine
}

// State returns the replica's positions and velocities (live, not a copy).
func (r *Replica) State() *topology.State { return r.st }

// Steps returns how many MD steps the replica has advanced.
func (r *Replica) Steps() int64 { return r.eng.Steps() }

// Potential returns the replica's current potential energy in kcal/mol.
func (r *Replica) Potential() float64 { return r.eng.Energies().Potential() }

// Ensemble is a replica-exchange run in progress.
type Ensemble struct {
	cfg      Config
	replicas []*Replica
	workers  int

	exch     *xrand.RNG // exchange decision stream
	attempts []int64    // per neighbor pair (i, i+1)
	accepts  []int64
	round    int64 // exchange rounds attempted; parity alternates pairs
	step     int64 // global MD step counter

	epoch time.Time // wall-clock origin for trace timestamps
}

// New builds an ensemble of len(cfg.Temperatures) replicas of the given
// system. Each replica gets a deep copy of st with velocities rescaled
// from st's temperature to its rung, its own engine, and a Langevin
// thermostat with a stream derived deterministically from cfg.Seed.
func New(sys *topology.System, ff *forcefield.Params, st *topology.State, cfg Config) (*Ensemble, error) {
	if len(cfg.Temperatures) == 0 {
		return nil, fmt.Errorf("ensemble: empty temperature ladder")
	}
	for i, t := range cfg.Temperatures {
		if !(t > 0) {
			return nil, fmt.Errorf("ensemble: rung %d temperature %v, want > 0 K", i, t)
		}
	}
	if sys.N() != len(st.Pos) || sys.N() != len(st.Vel) {
		return nil, fmt.Errorf("ensemble: state size does not match system")
	}
	if cfg.Dt == 0 {
		cfg.Dt = 0.5
	}
	if !(cfg.Dt > 0) || math.IsInf(cfg.Dt, 1) {
		return nil, fmt.Errorf("ensemble: timestep %v fs", cfg.Dt)
	}
	// A negative friction makes the Langevin noise amplitude the square
	// root of a negative number: NaN velocities from the first step.
	if !(cfg.Gamma >= 0) || math.IsInf(cfg.Gamma, 1) {
		return nil, fmt.Errorf("ensemble: Langevin friction %v /fs, want finite and ≥ 0 (0 = 0.005)", cfg.Gamma)
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = 0.005
	}
	if cfg.ExchangeEvery < 0 {
		return nil, fmt.Errorf("ensemble: exchange interval %d steps, want ≥ 0 (0 = 100)", cfg.ExchangeEvery)
	}
	if cfg.ExchangeEvery == 0 {
		cfg.ExchangeEvery = 100
	}

	e := &Ensemble{
		cfg:      cfg,
		exch:     xrand.New(cfg.Seed ^ 0xe0c5_a9d1_37b3_f00d),
		attempts: make([]int64, max(0, len(cfg.Temperatures)-1)),
		accepts:  make([]int64, max(0, len(cfg.Temperatures)-1)),
		epoch:    time.Now(),
	}
	e.workers = cfg.Workers
	if e.workers <= 0 {
		e.workers = runtime.NumCPU()
	}
	if e.workers > len(cfg.Temperatures) {
		e.workers = len(cfg.Temperatures)
	}

	t0 := thermo.Temperature(sys, st)
	for i, temp := range cfg.Temperatures {
		rst := &topology.State{
			Pos: append([]vec.V3(nil), st.Pos...),
			Vel: append([]vec.V3(nil), st.Vel...),
		}
		// Start each rung near its own temperature rather than all at t0.
		if t0 > 0 {
			scale := math.Sqrt(temp / t0)
			for k := range rst.Vel {
				rst.Vel[k] = rst.Vel[k].Scale(scale)
			}
		}
		th := &thermo.Langevin{
			Target: temp,
			Gamma:  cfg.Gamma,
			Seed:   cfg.Seed + 0x9e3779b97f4a7c15*uint64(i+1),
		}
		// One replica's engine on cluster lists: one inline worker, or a
		// worker pool (0 workers = all cores).
		ecfg := engine.Config{Workers: 1, ClusterM: engine.DefaultClusterM, ClusterN: engine.DefaultClusterN, Thermostat: th}
		if w := cfg.EngineWorkers; w > 1 || w == 0 && sys.N() >= parAtomThreshold {
			ecfg.Workers = w
		}
		eng, err := engine.New(sys, ff, rst, ecfg)
		if err != nil {
			return nil, err
		}
		e.replicas = append(e.replicas, &Replica{Index: i, Temp: temp, st: rst, eng: eng})
	}
	return e, nil
}

// Close stops every replica engine's worker pool. Call it when done with
// the ensemble; the pools' goroutines otherwise outlive it.
func (e *Ensemble) Close() {
	for _, r := range e.replicas {
		r.eng.Close()
	}
}

// NumReplicas returns the ladder size.
func (e *Ensemble) NumReplicas() int { return len(e.replicas) }

// Replica returns rung i.
func (e *Ensemble) Replica(i int) *Replica { return e.replicas[i] }

// Step returns the global MD step counter.
func (e *Ensemble) Step() int64 { return e.step }

// ExchangeCounts returns copies of the per-neighbor-pair attempt and
// accept counters (pair i couples rungs i and i+1).
func (e *Ensemble) ExchangeCounts() (attempts, accepts []int64) {
	return append([]int64(nil), e.attempts...), append([]int64(nil), e.accepts...)
}

// AcceptanceRates returns, per neighbor pair, the fraction of attempted
// exchanges that were accepted (0 for pairs never attempted).
func (e *Ensemble) AcceptanceRates() []float64 {
	out := make([]float64, len(e.attempts))
	for i := range out {
		if e.attempts[i] > 0 {
			out[i] = float64(e.accepts[i]) / float64(e.attempts[i])
		}
	}
	return out
}

func (e *Ensemble) now() float64 { return time.Since(e.epoch).Seconds() }

// Run advances every replica by steps MD steps, attempting an exchange
// at every multiple of ExchangeEvery. The global step counter persists
// across calls (and across Restore), so the exchange schedule is a pure
// function of the step count: a run split into blocks, or resumed from a
// Snapshot, is bit-identical to one uninterrupted call.
func (e *Ensemble) Run(steps int) error {
	ee := int64(e.cfg.ExchangeEvery)
	for target := e.step + int64(steps); e.step < target; {
		next := min(target, (e.step/ee+1)*ee)
		if err := e.advance(int(next - e.step)); err != nil {
			return err
		}
		e.step = next
		if e.step%ee == 0 {
			e.exchange()
		}
	}
	return nil
}

// advance steps every replica n times, at most e.workers concurrently.
// Replicas share only read-only data (topology, force field), so the pool
// needs no ordering: results are deterministic regardless of scheduling.
// A replica stops at its first failed step; advance returns the error of
// the lowest-index replica that failed.
func (e *Ensemble) advance(n int) error {
	if n <= 0 {
		return nil
	}
	recs := make([]trace.ExecRecord, len(e.replicas))
	errs := make([]error, len(e.replicas))
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	for _, r := range e.replicas {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := e.now()
			for s := 0; s < n; s++ {
				if err := r.eng.Step(e.cfg.Dt); err != nil {
					errs[r.Index] = fmt.Errorf("ensemble: replica %d: %w", r.Index, err)
					break
				}
			}
			t1 := e.now()
			recs[r.Index] = trace.ExecRecord{
				PE: int32(r.Index), Obj: int32(r.Index), Entry: "replica.advance",
				Start: t0, End: t1,
				Spans: []trace.Span{{Cat: trace.CatIntegration, Dur: t1 - t0}},
			}
		}(r)
	}
	wg.Wait()
	if e.cfg.Trace.Enabled() {
		for _, rec := range recs {
			e.cfg.Trace.Add(rec)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// exchange attempts Metropolis swaps between neighboring rungs, even pairs
// (0-1, 2-3, …) on even rounds and odd pairs (1-2, 3-4, …) on odd rounds,
// so every neighbor couple is attempted on alternating rounds.
func (e *Ensemble) exchange() {
	defer func() { e.round++ }()
	for i := int(e.round % 2); i+1 < len(e.replicas); i += 2 {
		t0 := e.now()
		ri, rj := e.replicas[i], e.replicas[i+1]
		// Detailed balance for swapping configurations between inverse
		// temperatures βi and βj: accept with min(1, exp((βi−βj)(Ui−Uj))).
		ui, uj := ri.Potential(), rj.Potential()
		bi := 1 / (units.Boltzmann * ri.Temp)
		bj := 1 / (units.Boltzmann * rj.Temp)
		delta := (bi - bj) * (ui - uj)
		accept := delta >= 0 || e.exch.Float64() < math.Exp(delta)
		e.attempts[i]++
		entry := "exchange.reject"
		if accept {
			e.accepts[i]++
			e.swap(ri, rj)
			entry = "exchange.accept"
		}
		if e.cfg.Trace.Enabled() {
			t1 := e.now()
			e.cfg.Trace.Add(trace.ExecRecord{
				PE: int32(i), Obj: int32(i), Entry: entry,
				Start: t0, End: t1,
				Spans: []trace.Span{{Cat: trace.CatExchange, Dur: t1 - t0}},
			})
		}
	}
}

// swap exchanges the configurations of two rungs: positions and velocities
// trade places, velocities are rescaled to the destination temperature
// (sqrt(Tnew/Told), the standard REMD velocity reassignment that preserves
// the Maxwell distribution at each rung), and both engines drop their
// cached forces.
func (e *Ensemble) swap(ri, rj *Replica) {
	ri.st.Pos, rj.st.Pos = rj.st.Pos, ri.st.Pos
	ri.st.Vel, rj.st.Vel = rj.st.Vel, ri.st.Vel
	si := math.Sqrt(ri.Temp / rj.Temp)
	for k := range ri.st.Vel {
		ri.st.Vel[k] = ri.st.Vel[k].Scale(si)
	}
	sj := 1 / si
	for k := range rj.st.Vel {
		rj.st.Vel[k] = rj.st.Vel[k].Scale(sj)
	}
	ri.eng.Invalidate()
	rj.eng.Invalidate()
}

// Snapshot captures the complete dynamic state of the ensemble as a
// checkpoint payload: every replica engine's whole state (engine
// Snapshot) and the exchange state, deep-copied, so mutating the ensemble
// afterwards does not alter the snapshot.
func (e *Ensemble) Snapshot() *ckpt.EnsembleState {
	st := &ckpt.EnsembleState{
		Step:        e.step,
		Round:       e.round,
		ExchangeRNG: [4]uint64(e.exch.Words()),
		Attempts:    append([]int64(nil), e.attempts...),
		Accepts:     append([]int64(nil), e.accepts...),
		Replicas:    make([]ckpt.ReplicaState, len(e.replicas)),
	}
	for i, r := range e.replicas {
		st.Replicas[i] = ckpt.ReplicaState{Temp: r.Temp, Engine: *r.eng.Snapshot()}
	}
	return st
}

// Restore applies a Snapshot to the ensemble, which must have been built
// with the same system and temperature ladder; continuing a restored run
// is then bit-identical to never having stopped. A replica whose
// engine refuses its state (engine Restore) fails the call after the
// replicas before it were restored; the ensemble must not be run then.
func (e *Ensemble) Restore(st *ckpt.EnsembleState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	if len(st.Replicas) != len(e.replicas) {
		return fmt.Errorf("ensemble: checkpoint has %d replicas, ensemble has %d",
			len(st.Replicas), len(e.replicas))
	}
	for i, rs := range st.Replicas {
		if rs.Temp != e.replicas[i].Temp {
			return fmt.Errorf("ensemble: checkpoint rung %d at %g K, ensemble at %g K",
				i, rs.Temp, e.replicas[i].Temp)
		}
	}
	for i := range st.Replicas {
		if err := e.replicas[i].eng.Restore(&st.Replicas[i].Engine); err != nil {
			return fmt.Errorf("ensemble: replica %d: %w", i, err)
		}
	}
	e.step = st.Step
	e.round = st.Round
	copy(e.exch.Words(), st.ExchangeRNG[:])
	copy(e.attempts, st.Attempts)
	copy(e.accepts, st.Accepts)
	if e.cfg.Trace.Enabled() {
		now := e.now()
		e.cfg.Trace.Add(trace.ExecRecord{
			PE: 0, Obj: -1, Entry: "ensemble.recover", Start: now, End: now,
			Spans: []trace.Span{{Cat: trace.CatRecovery, Dur: 0}},
		})
	}
	return nil
}

// GeometricLadder returns n temperatures from tmin to tmax with constant
// ratio between rungs — the standard REMD spacing, which equalizes
// neighbor acceptance rates when the heat capacity is roughly constant.
func GeometricLadder(tmin, tmax float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = tmin
		return out
	}
	ratio := math.Pow(tmax/tmin, 1/float64(n-1))
	t := tmin
	for i := range out {
		out[i] = t
		t *= ratio
	}
	out[n-1] = tmax // exact endpoint despite rounding
	return out
}
