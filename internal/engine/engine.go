// Package engine is the molecular dynamics engine: the paper's object
// decomposition on a shared-memory machine, with goroutines in place of
// processors, from one worker upward. Nonbonded work is one global M×N
// cluster pair list (clusterlist.go) cut into one task per spatial cell,
// bonded terms into fixed-size chunks; task execution times are measured
// every step and periodically rebalanced across workers with the same
// measurement-based greedy/refinement strategies (internal/ldb) the
// cluster simulation uses. Every worker accumulates into its own dense
// force array, and the arrays are summed per atom range in worker order,
// so results are independent of scheduling.
//
// One worker is the same program run inline: no goroutine is started, the
// compute phase runs on the calling goroutine and accumulates straight
// into the engine's force array, and there is nothing to reduce. Its
// time is the single-processor time speedups are measured against.
//
// Constructed without a cluster geometry the engine evaluates nonbonded
// forces by the list-free cell walk of internal/seq instead — one task in
// place of the per-cell cluster tasks, everything else unchanged. That
// reference mode is the oracle the cluster path is tested against.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"gonamd/internal/fft"
	"gonamd/internal/forcefield"
	"gonamd/internal/ftdc"
	"gonamd/internal/ldb"
	"gonamd/internal/pme"
	"gonamd/internal/seq"
	"gonamd/internal/spatial"
	"gonamd/internal/thermo"
	"gonamd/internal/topology"
	"gonamd/internal/trace"
	"gonamd/internal/units"
	"gonamd/internal/vec"
)

// taskKind discriminates the work a task performs.
type taskKind uint8

const (
	taskBonded   taskKind = iota
	taskCluster           // one cell's run of the cell-grouped cluster order (clusterlist.go)
	taskCellWalk          // reference mode: the whole list-free cell walk (seq.CellWalk)
)

type task struct {
	kind     taskKind
	cell     int // cluster: owning cell
	lo, hi   int // bonded: term range into the flattened list; cluster: range into clOrder
	cells    []int
	measured float64 // seconds, exponentially smoothed
}

// bondedRef flattens all bonded terms into one indexable list.
type bondedRef struct {
	kind uint8 // 0 bond, 1 angle, 2 dihedral, 3 improper
	idx  int32
}

// wstate is one worker's private, dense force accumulator. The single
// worker of a one-worker engine accumulates into the engine's force
// array itself (f aliases it).
type wstate struct {
	f []vec.V3

	// Slot-indexed force buffers the cluster kernels accumulate into
	// (clusterlist.go), flushed to f after the task loop. Invariant:
	// all-zero between evaluations.
	fxs, fys, fzs []float64

	// nbT/bT are this worker's summed nonbonded and bonded task times for
	// the latest compute phase, read by the tracing emission (tracing.go).
	nbT, bT float64
}

func (ws *wstate) add(i int32, fv vec.V3) {
	ws.f[i] = ws.f[i].Add(fv)
}

// Engine runs molecular dynamics on one inline worker or across a pool
// of goroutine workers.
type Engine struct {
	Sys *topology.System
	FF  *forcefield.Params
	St  *topology.State

	// From Config; rebalanceEvery with its default resolved.
	rebalanceEvery int
	lb             ldb.Strategy
	thermostat     thermo.Thermostat

	workers  int
	grid     *spatial.Grid // cells of edge ≥ cutoff+skin: the task decomposition
	tasks    []task
	assign   []int // task → worker
	cellHome []int // cell → initially responsible worker (for ldb locality)
	terms    []bondedRef

	forces  []vec.V3 // reduced forces
	wstates []wstate // per-worker dense accumulators
	wenergy []seq.Energies

	// Persistent worker pool of a multi-worker engine (a one-worker engine
	// never starts it): spawning 2·workers goroutines per force evaluation
	// was the last per-step allocation source, so a fixed pool parks on
	// workCh instead, from the first evaluation until Close. A job
	// k < workers is compute phase for worker k; k in [workers, 2·workers)
	// is reduce phase for worker k-workers; k ≥ 2·workers runs pmeFn (a
	// PME mesh phase) for worker k-2·workers.
	workCh chan int
	wg     sync.WaitGroup // jobs of the phase in flight
	exited sync.WaitGroup // worker goroutines
	pmeFn  func(w int)
	mesh   fft.Pool // what the PME mesh phases run on (pme.go)

	// pme, when non-nil, holds the full-electrostatics slow-force solver
	// (see pme.go); the pair kernel then evaluates the erfc real-space
	// term and Step follows the impulse-MTS reciprocal schedule.
	pme *pme.Solver

	// clb is the global cluster pair list and its kernel (clusterlist.go);
	// nil in reference mode, where walk evaluates the nonbonded forces.
	clb  *clusterState
	walk *seq.CellWalk

	cur      seq.Energies
	fresh    bool // forces correspond to current positions
	steps    int64
	balances int

	tr      *trace.Recorder // per-phase execution records, nil untraced (tracing.go)
	metrics *ftdc.Recorder  // telemetry published after every step (metrics.go)
	cons    *constraints    // SHAKE/RATTLE stages of Step, nil without (constraints.go)
}

// Config is everything an engine is built with. New takes it whole;
// nothing about an engine is configured after construction.
type Config struct {
	// Workers is the worker count (0 = NumCPU); one worker runs inline.
	Workers int

	// ClusterM×ClusterN is the geometry of the cluster pair lists; 0×0
	// selects the list-free reference mode, which runs on one worker.
	ClusterM, ClusterN int

	// PME, when non-nil, switches the electrostatics to smooth
	// particle-mesh Ewald under the impulse-MTS schedule (pme.go).
	PME *PMEConfig

	// HBondConstraints holds every bond to hydrogen at its force-field
	// equilibrium length with SHAKE/RATTLE (constraints.go). Not with PME:
	// the impulse-MTS cycle has no constraint projection.
	HBondConstraints bool

	// Thermostat, when non-nil, is applied after every step (NVT dynamics).
	Thermostat thermo.Thermostat

	// RebalanceEvery, when non-nil, sets how many steps run between
	// load-balancing passes (0 disables them; call Rebalance manually).
	// Nil selects every 20 steps on a multi-worker engine, none on one.
	RebalanceEvery *int

	// LB is the load-balancing strategy Rebalance applies; nil selects
	// ldb.GreedyRefine. Resolve registry names with ldb.Lookup.
	LB ldb.Strategy

	// Trace, when enabled, receives per-phase execution records
	// (tracing.go).
	Trace *trace.Log

	// Metrics, when non-nil, receives the always-on telemetry vector
	// after every step: atomic stores, no allocation (metrics.go). Its
	// phase times come from the trace recorder, a timing-only one when
	// there is no Trace.
	Metrics *ftdc.Recorder
}

// DefaultClusterM × DefaultClusterN is the cluster geometry every
// benchmark workload runs and callers without a preference pass to New.
// The kernel sweep costs 16.8 / 14.0 / 13.0 ns per candidate at 4×4 /
// 4×8 / 8×8 (BenchmarkNonbondedCluster), against more candidates per
// useful pair as the tile grows.
const DefaultClusterM, DefaultClusterN = 4, 8

// New builds the engine cfg describes over the system. The spatial grid
// has cells at least cutoff+skin wide, and work decomposes into one
// nonbonded task per cell (reference mode: one task in all) plus chunks
// of bonded terms.
func New(sys *topology.System, ff *forcefield.Params, st *topology.State, cfg Config) (*Engine, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if cfg.HBondConstraints && cfg.PME != nil {
		return nil, fmt.Errorf("engine: SHAKE/RATTLE constraints and PME cannot be combined")
	}
	if sys.N() != len(st.Pos) || sys.N() != len(st.Vel) {
		return nil, fmt.Errorf("engine: state size %d/%d does not match %d atoms", len(st.Pos), len(st.Vel), sys.N())
	}
	if !sys.ExclusionsBuilt() {
		return nil, fmt.Errorf("engine: exclusions not built")
	}
	if err := checkTypes(sys, ff); err != nil {
		return nil, err
	}
	grid, err := spatial.NewGrid(sys.Box, ff.Cutoff+seq.DefaultClusterSkin)
	if err != nil {
		return nil, err
	}
	if cfg.PME != nil {
		// The pair kernels evaluate the Ewald real-space term from here on,
		// and the cluster kernel follows the electrostatics.
		ff = ff.WithEwald(cfg.PME.beta(ff))
	}
	e := &Engine{
		Sys: sys, FF: ff, St: st,
		lb:         cfg.LB,
		thermostat: cfg.Thermostat,
		workers:    workers,
		grid:       grid,
		forces:     make([]vec.V3, sys.N()),
		wstates:    make([]wstate, workers),
		wenergy:    make([]seq.Energies, workers),
		tr:         trace.NewRecorder(cfg.Trace),
		metrics:    cfg.Metrics,
	}
	if e.metrics != nil && e.tr == nil {
		// Metrics need the phase accumulators even without a trace log.
		e.tr = trace.NewTimingRecorder()
	}
	if m, n := cfg.ClusterM, cfg.ClusterN; m == 0 && n == 0 {
		if workers != 1 {
			return nil, fmt.Errorf("engine: the list-free reference mode runs on one worker, not %d", workers)
		}
		if e.walk, err = seq.NewCellWalk(sys.Box, ff.Cutoff); err != nil {
			return nil, err
		}
	} else if e.clb, err = newClusterState(sys, ff, m, n); err != nil {
		return nil, err
	}
	if workers == 1 {
		e.wstates[0].f = e.forces
		e.mesh = fft.Serial{}
	} else {
		e.rebalanceEvery = 20
		e.mesh = poolAdapter{e}
		for w := range e.wstates {
			e.wstates[w].f = make([]vec.V3, sys.N())
		}
	}
	if cfg.RebalanceEvery != nil {
		e.rebalanceEvery = *cfg.RebalanceEvery
	}
	if cfg.PME != nil {
		if err := e.enablePME(cfg.PME); err != nil {
			return nil, err
		}
	}
	if cfg.HBondConstraints {
		if e.cons, err = newHBondConstraints(sys, ff); err != nil {
			return nil, err
		}
	}
	e.buildTasks()
	e.staticAssign()
	return e, nil
}

// checkTypes rejects a system whose atoms or bonded terms index past the
// force field's parameter tables: the kernels index those tables
// unchecked, and a gonamdd inline topology can carry any index.
func checkTypes(sys *topology.System, ff *forcefield.Params) error {
	bad := func(what string, i int, typ int32, n int) error {
		if typ >= 0 && int(typ) < n {
			return nil
		}
		return fmt.Errorf("engine: %s %d has type %d; the force field has %d %s types", what, i, typ, n, what)
	}
	for i, a := range sys.Atoms {
		if err := bad("atom", i, a.Type, len(ff.AtomTypes)); err != nil {
			return err
		}
	}
	for i, b := range sys.Bonds {
		if err := bad("bond", i, b.Type, len(ff.BondTypes)); err != nil {
			return err
		}
	}
	for i, a := range sys.Angles {
		if err := bad("angle", i, a.Type, len(ff.AngleTypes)); err != nil {
			return err
		}
	}
	for i, d := range sys.Dihedrals {
		if err := bad("dihedral", i, d.Type, len(ff.DihedralTypes)); err != nil {
			return err
		}
	}
	for i, d := range sys.Impropers {
		if err := bad("improper", i, d.Type, len(ff.ImproperTypes)); err != nil {
			return err
		}
	}
	return nil
}

// Workers returns the worker count.
func (e *Engine) Workers() int { return e.workers }

// NumTasks returns the number of decomposed work units.
func (e *Engine) NumTasks() int { return len(e.tasks) }

// Balances returns how many load-balancing passes have run.
func (e *Engine) Balances() int { return e.balances }

// buildTasks creates one cluster task per cell (its cluster range is
// filled in on every list rebuild; the task objects, and their measured
// times, persist), or the one cell-walk task of the reference mode, plus
// the bonded chunks.
func (e *Engine) buildTasks() {
	if e.clb == nil {
		e.tasks = append(e.tasks, task{kind: taskCellWalk})
	} else {
		for c := 0; c < e.grid.NumPatches(); c++ {
			e.tasks = append(e.tasks, task{kind: taskCluster, cell: c, cells: []int{c}})
		}
	}
	for i := range e.Sys.Bonds {
		e.terms = append(e.terms, bondedRef{0, int32(i)})
	}
	for i := range e.Sys.Angles {
		e.terms = append(e.terms, bondedRef{1, int32(i)})
	}
	for i := range e.Sys.Dihedrals {
		e.terms = append(e.terms, bondedRef{2, int32(i)})
	}
	for i := range e.Sys.Impropers {
		e.terms = append(e.terms, bondedRef{3, int32(i)})
	}
	const chunk = 512
	for lo := 0; lo < len(e.terms); lo += chunk {
		hi := lo + chunk
		if hi > len(e.terms) {
			hi = len(e.terms)
		}
		e.tasks = append(e.tasks, task{kind: taskBonded, lo: lo, hi: hi})
	}
}

// staticAssign distributes cells over workers with RCB and places each
// cluster task on the worker owning its cell — the analogue of the
// paper's static placement stage.
func (e *Engine) staticAssign() {
	np := e.grid.NumPatches()
	centers := make([]vec.V3, np)
	weights := make([]float64, np)
	bins := e.grid.Bin(e.St.Pos)
	for c := 0; c < np; c++ {
		centers[c] = e.grid.Center(c)
		weights[c] = float64(len(bins[c])) + 1
	}
	e.cellHome = spatial.RCB(centers, weights, e.workers)
	e.assign = make([]int, len(e.tasks))
	for ti, t := range e.tasks {
		if t.kind == taskCluster {
			e.assign[ti] = e.cellHome[t.cell]
		} else {
			e.assign[ti] = ti % e.workers
		}
	}
}

// Rebalance remaps tasks to workers using the measured task times and
// the engine's strategy (Config.LB, default ldb.GreedyRefine, the same
// centralized pair the cluster simulation uses). The balance count is
// the strategy's pass number, so composite strategies run their global
// stage on the first rebalance and refine incrementally thereafter.
func (e *Engine) Rebalance() {
	prob := &ldb.Problem{
		NumPE:      e.workers,
		NumPatches: e.grid.NumPatches(),
		PatchHome:  e.cellHome,
	}
	for ti, t := range e.tasks {
		prob.Objects = append(prob.Objects, ldb.Object{
			Load:       t.measured,
			Patches:    t.cells,
			Migratable: true,
			PE:         e.assign[ti],
		})
	}
	strat := e.lb
	if strat == nil {
		strat = &ldb.GreedyRefine{}
	}
	e.assign = strat.Map(prob, e.balances)
	e.balances++
}

// ComputeForces runs every task into the engine's force array and
// returns the energies (kinetic included).
func (e *Engine) ComputeForces() seq.Energies {
	if c := e.clb; c != nil {
		// The list rebuilds only when it went stale, and in the driver, so a
		// rebuild step evaluates exactly the list a replay step would (bitwise
		// rebuild-vs-replay).
		if !c.guard.Valid(e.St.Pos, e.Sys.Box) {
			e.rebuildClusters(e.St.Pos)
		}
		c.data.LoadPositions(c.list, e.St.Pos)
	}

	t := e.phaseNow()
	if e.workers == 1 {
		e.computeWorker(0)
	} else {
		e.runPool(0)
	}
	if e.tr.Enabled() {
		e.emitComputePhase(t)
		t = e.tr.Now()
	}

	if e.workers > 1 {
		// Deterministic dense reduction: each reducer owns an atom range and
		// adds the workers' arrays over it in fixed worker order.
		e.runPool(e.workers)
		e.phaseEmit("reduce", trace.CatComm, t)
	}

	var en seq.Energies
	for w := 0; w < e.workers; w++ {
		en.Bond += e.wenergy[w].Bond
		en.Angle += e.wenergy[w].Angle
		en.Dihedral += e.wenergy[w].Dihedral
		en.Improper += e.wenergy[w].Improper
		en.VdW += e.wenergy[w].VdW
		en.Elec += e.wenergy[w].Elec
		en.Virial += e.wenergy[w].Virial
	}
	e.cur = en
	e.fresh = true
	en.Kinetic = e.Kinetic()
	return en
}

// runPool hands job codes base … base+workers-1 to the pool and waits for
// them, starting the pool on first use (or first use after Close). The
// workers park on workCh between phases; channel sends of plain ints and
// the shared WaitGroup keep the steady-state dispatch allocation-free.
func (e *Engine) runPool(base int) {
	if e.workCh == nil {
		e.workCh = make(chan int)
		e.exited.Add(e.workers)
		for k := 0; k < e.workers; k++ {
			go e.workerLoop(e.workCh)
		}
	}
	e.wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		e.workCh <- base + w
	}
	e.wg.Wait()
}

// Close stops the worker pool and returns once its goroutines have
// exited; until then they, and through them the engine's O(N·workers)
// accumulators, stay reachable for the life of the process. Call it when
// done with an engine. It is idempotent, a no-op on a one-worker engine
// (which never started a goroutine), and must not overlap a step; a
// closed engine that is stepped again simply starts a new pool.
func (e *Engine) Close() {
	if e.workCh != nil {
		close(e.workCh)
		e.exited.Wait()
		e.workCh = nil
	}
}

func (e *Engine) workerLoop(jobs <-chan int) {
	defer e.exited.Done()
	n := e.Sys.N()
	chunk := (n + e.workers - 1) / e.workers
	for job := range jobs {
		switch {
		case job < e.workers:
			e.computeWorker(job)
		case job < 2*e.workers:
			w := job - e.workers
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo < hi {
				e.reduceRange(lo, hi)
			}
		default:
			e.pmeFn(job - 2*e.workers)
		}
		e.wg.Done()
	}
}

// computeWorker is phase one: clear the worker's force array and run its
// assigned tasks into it.
func (e *Engine) computeWorker(w int) {
	ws := &e.wstates[w]
	clear(ws.f)

	var en seq.Energies
	var nbT, bT float64
	for ti := range e.tasks {
		t := &e.tasks[ti]
		if e.assign[ti] != w {
			continue
		}
		start := time.Now()
		switch t.kind {
		case taskBonded:
			e.bondedRange(t.lo, t.hi, ws, &en)
		case taskCluster:
			e.runClusterTask(t, ws, &en)
		case taskCellWalk:
			e.walk.Nonbonded(e.Sys, e.FF, e.St.Pos, ws.f, &en)
		}
		dt := time.Since(start).Seconds()
		if t.kind == taskBonded {
			bT += dt
		} else {
			nbT += dt
		}
		// Exponential smoothing stabilizes the measurements the
		// balancer sees (principle of persistence).
		if t.measured == 0 {
			t.measured = dt
		} else {
			t.measured = 0.7*t.measured + 0.3*dt
		}
	}
	if e.clb != nil {
		e.flushClusterForces(ws)
	}
	ws.nbT, ws.bT = nbT, bT
	e.wenergy[w] = en
}

// reduceRange is phase two: sum the workers' arrays over atoms [lo, hi),
// in worker order. A worker that never wrote an atom adds +0, which
// leaves the sum's bits as they are.
func (e *Engine) reduceRange(lo, hi int) {
	out := e.forces[lo:hi]
	clear(out)
	for w := range e.wstates {
		for i, f := range e.wstates[w].f[lo:hi] {
			out[i] = out[i].Add(f)
		}
	}
}

func (e *Engine) bondedRange(lo, hi int, ws *wstate, en *seq.Energies) {
	pos, box := e.St.Pos, e.Sys.Box
	for _, ref := range e.terms[lo:hi] {
		switch ref.kind {
		case 0:
			b := e.Sys.Bonds[ref.idx]
			fi, fj, eb := e.FF.BondForce(b.Type, pos[b.I], pos[b.J], box)
			en.Bond += eb
			en.Virial += fi.Dot(vec.MinImage(pos[b.I], pos[b.J], box))
			ws.add(b.I, fi)
			ws.add(b.J, fj)
		case 1:
			a := e.Sys.Angles[ref.idx]
			fi, fj, fk, ea := e.FF.AngleForce(a.Type, pos[a.I], pos[a.J], pos[a.K], box)
			en.Angle += ea
			en.Virial += fi.Dot(vec.MinImage(pos[a.I], pos[a.J], box)) +
				fk.Dot(vec.MinImage(pos[a.K], pos[a.J], box))
			ws.add(a.I, fi)
			ws.add(a.J, fj)
			ws.add(a.K, fk)
		case 2:
			d := e.Sys.Dihedrals[ref.idx]
			fi, fj, fk, fl, ed := e.FF.DihedralForce(d.Type, pos[d.I], pos[d.J], pos[d.K], pos[d.L], box)
			en.Dihedral += ed
			en.Virial += fi.Dot(vec.MinImage(pos[d.I], pos[d.J], box)) +
				fk.Dot(vec.MinImage(pos[d.K], pos[d.J], box)) +
				fl.Dot(vec.MinImage(pos[d.L], pos[d.J], box))
			ws.add(d.I, fi)
			ws.add(d.J, fj)
			ws.add(d.K, fk)
			ws.add(d.L, fl)
		case 3:
			d := e.Sys.Impropers[ref.idx]
			fi, fj, fk, fl, ei := e.FF.ImproperForce(d.Type, pos[d.I], pos[d.J], pos[d.K], pos[d.L], box)
			en.Improper += ei
			en.Virial += fi.Dot(vec.MinImage(pos[d.I], pos[d.J], box)) +
				fk.Dot(vec.MinImage(pos[d.K], pos[d.J], box)) +
				fl.Dot(vec.MinImage(pos[d.L], pos[d.J], box))
			ws.add(d.I, fi)
			ws.add(d.J, fj)
			ws.add(d.K, fk)
			ws.add(d.L, fl)
		}
	}
}

// Forces returns the force array from the last evaluation. The slice is
// owned by the engine.
func (e *Engine) Forces() []vec.V3 {
	e.ensureForces()
	return e.forces
}

func (e *Engine) ensureForces() {
	if !e.fresh {
		e.ComputeForces()
	}
}

// Energies returns the last evaluation's energies plus current kinetic.
// With full electrostatics enabled, Elec and Virial include the slow
// reciprocal-space terms from their latest evaluation (up to mtsPeriod-1
// steps old mid-cycle, by construction of the impulse scheme).
func (e *Engine) Energies() seq.Energies {
	e.ensureForces()
	en := e.cur
	if e.pme != nil {
		e.ensureRecip()
		en.Elec += e.pme.SlowEnergy
		en.Virial += e.pme.SlowVirial
	}
	en.Kinetic = e.Kinetic()
	return en
}

// Invalidate marks the cached forces stale after positions were modified
// outside the engine (e.g. a replica-exchange configuration swap); the
// next Step or Energies call recomputes them. The list's drift bound is
// voided too, since external edits are not drift-tracked.
func (e *Engine) Invalidate() {
	e.fresh = false
	if e.clb != nil {
		e.clb.guard.Invalidate()
	}
	if e.pme != nil {
		e.pme.Invalidate()
	}
}

// Kinetic returns the kinetic energy in kcal/mol.
func (e *Engine) Kinetic() float64 { return thermo.Kinetic(e.Sys, e.St) }

// Temperature returns the instantaneous temperature in K.
func (e *Engine) Temperature() float64 { return thermo.Temperature(e.Sys, e.St) }

// atmPerKcalMolA3 converts kcal/mol/Å³ to atmospheres.
const atmPerKcalMolA3 = 68568.4

// Pressure returns the instantaneous pressure in atmospheres from the
// virial equation P·V = N·kB·T + W/3.
func (e *Engine) Pressure() float64 {
	en := e.Energies()
	vol := e.Sys.Box.X * e.Sys.Box.Y * e.Sys.Box.Z
	nkt := float64(e.Sys.N()) * units.Boltzmann * e.Temperature()
	return (nkt + en.Virial/3) / vol * atmPerKcalMolA3
}

// kick adds f·dt/m to every velocity.
func (e *Engine) kick(f []vec.V3, dt float64) {
	vel := e.St.Vel
	for i := range vel {
		a := f[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
		vel[i] = vel[i].Add(a.Scale(dt))
	}
}

// kickDrift is the first half of a velocity-Verlet step under forces f:
// half kick, then drift. It tracks the largest speed: each atom's
// displacement is exactly |v|·dt, which advances the list's drift bound
// so validity checks can skip their O(N) scan.
func (e *Engine) kickDrift(f []vec.V3, dt float64) {
	pos, vel := e.St.Pos, e.St.Vel
	var maxV2 float64
	for i := range pos {
		a := f[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
		vel[i] = vel[i].Add(a.Scale(0.5 * dt))
		if v2 := vel[i].Norm2(); v2 > maxV2 {
			maxV2 = v2
		}
		pos[i] = vec.Wrap(pos[i].Add(vel[i].Scale(dt)), e.Sys.Box)
	}
	if e.clb != nil {
		e.clb.guard.Advance(math.Sqrt(maxV2) * dt)
	}
}

// Step advances one velocity-Verlet step of dt femtoseconds, with the
// stages the engine was built with: under PME the reciprocal force kicks
// velocities by ½·k·dt at the start and end of each k-step impulse-MTS
// cycle (Verlet-I/r-RESPA: one reciprocal evaluation per cycle, plain
// velocity Verlet on the fast forces every step, exactly velocity Verlet
// on the combined force at k = 1); SHAKE follows the drift and RATTLE
// the closing half-kick; the thermostat ends the step. An error — a
// force evaluation left the potential energy non-finite, or a constraint
// solver did not converge — leaves the step unfinished and uncounted.
func (e *Engine) Step(dt float64) error {
	e.ensureForces()
	if err := e.diverged(); err != nil {
		return err
	}
	p, c := e.pme, e.cons
	var fr []vec.V3
	var dtOuter float64
	if p != nil {
		e.ensureRecip()
		fr, dtOuter = p.Forces(), dt*float64(p.MTSPeriod)
	}

	t := e.phaseNow()
	if p != nil && p.Counter == 0 {
		e.kick(fr, 0.5*dtOuter)
	}
	if c != nil {
		c.prev = append(c.prev[:0], e.St.Pos...)
	}
	e.kickDrift(e.forces, dt)
	if c != nil {
		if err := c.shake(e.St, e.Sys.Box, dt); err != nil {
			return err
		}
		// SHAKE corrections move atoms beyond the |v|·dt drift, so the
		// list's drift bound is unknown; Invalidate forces a displacement
		// scan.
		e.Invalidate()
	}
	e.phaseEmit("integrate", trace.CatIntegration, t)

	e.ComputeForces()
	if err := e.diverged(); err != nil {
		return err
	}

	t = e.phaseNow()
	e.kick(e.forces, 0.5*dt)
	if c != nil {
		if err := c.rattle(e.St, e.Sys.Box); err != nil {
			return err
		}
	}
	if p != nil {
		p.Counter++
		if p.Counter == p.MTSPeriod {
			p.Counter = 0
			e.phaseEmit("integrate", trace.CatIntegration, t)
			e.evalRecip()
			t = e.phaseNow()
			e.kick(fr, 0.5*dtOuter)
		}
	}
	if e.thermostat != nil {
		e.thermostat.Apply(e.Sys, e.St, dt)
	}
	e.phaseEmit("integrate", trace.CatIntegration, t)

	e.steps++
	if e.rebalanceEvery > 0 && e.steps%int64(e.rebalanceEvery) == 0 {
		e.Rebalance()
	}
	e.markStep()
	return nil
}

// diverged reports, naming the step, a potential energy the latest force
// evaluation left non-finite: forces that would carry the state into
// NaN, or that already did. O(1), and allocation-free unless it fails.
func (e *Engine) diverged() error {
	if u := e.cur.Potential(); math.IsNaN(u) || math.IsInf(u, 0) {
		return fmt.Errorf("engine: step %d: non-finite potential energy %g", e.steps+1, u)
	}
	return nil
}

// Run advances n steps and returns the final energies. It stops at the
// first step that fails and returns that step's error.
func (e *Engine) Run(n int, dt float64) (seq.Energies, error) {
	for s := 0; s < n; s++ {
		if err := e.Step(dt); err != nil {
			return seq.Energies{}, err
		}
	}
	return e.Energies(), nil
}

// Minimize performs up to steps iterations of steepest descent with
// per-atom displacements capped at maxMove Å, adapting the step size. It
// returns the final potential energy. Velocities are untouched. A rejected
// trial restores the accepted point whole — positions, forces and
// energies — so the next trial steps along the accepted point's gradient,
// not the rejected one's, at no extra force evaluation.
func (e *Engine) Minimize(steps int, maxMove float64) float64 {
	gamma := 1e-4
	prev := e.ComputeForces().Potential()
	savedPos := make([]vec.V3, len(e.St.Pos))
	savedF := make([]vec.V3, len(e.forces))
	for s := 0; s < steps; s++ {
		copy(savedPos, e.St.Pos)
		copy(savedF, e.forces)
		savedEn := e.cur
		for i, f := range e.forces {
			d := f.Scale(gamma)
			if n := d.Norm(); n > maxMove {
				d = d.Scale(maxMove / n)
			}
			e.St.Pos[i] = vec.Wrap(e.St.Pos[i].Add(d), e.Sys.Box)
		}
		e.Invalidate() // minimizer moves are not drift-bound tracked
		cur := e.ComputeForces().Potential()
		if cur > prev {
			// Reject the move and shrink the step.
			copy(e.St.Pos, savedPos)
			e.Invalidate()
			copy(e.forces, savedF)
			e.cur, e.fresh = savedEn, true
			gamma *= 0.5
			if gamma < 1e-12 {
				break
			}
			continue
		}
		gamma *= 1.2
		prev = cur
	}
	e.ensureForces()
	return prev
}

// WorkerLoads returns the most recent measured per-worker load in
// seconds per force evaluation (for diagnostics and examples).
func (e *Engine) WorkerLoads() []float64 {
	out := make([]float64, e.workers)
	for ti, t := range e.tasks {
		out[e.assign[ti]] += t.measured
	}
	return out
}
