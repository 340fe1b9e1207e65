// Package par is a real (not simulated) parallel molecular dynamics
// engine for shared-memory machines: the paper's object decomposition
// with goroutines in place of processors. Nonbonded work is one global
// M×N cluster pair list (clusterlist.go) cut into one task per spatial
// cell, bonded terms into fixed-size chunks; task execution times are
// measured every step and periodically rebalanced across workers with the
// same measurement-based greedy/refinement strategies (internal/ldb) the
// cluster simulation uses. Forces accumulate into worker-private arrays —
// each worker records the atoms it actually wrote, so zeroing and the
// final reduction cost O(touched) instead of O(N·workers) — and are
// reduced in a deterministic order, so results are independent of
// scheduling.
package par

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

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
	taskBonded  taskKind = iota
	taskCluster          // one cell's run of the cell-grouped cluster order (clusterlist.go)
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

// wstate is one worker's private force accumulator plus the sparse record
// of which atoms it has written this evaluation. touch is sorted at the
// end of the compute phase so the reduction can binary-search it.
type wstate struct {
	f     []vec.V3
	touch []int32
	mark  []bool

	// Slot-indexed force buffers the cluster kernels accumulate into
	// (clusterlist.go), flushed to f by touched lcm(M,N)-aligned slot block
	// after the task loop. Invariant: all-zero between evaluations.
	fxs, fys, fzs []float64
	blkTouch      []int32
	blkMark       []bool

	// nbT/bT are this worker's summed nonbonded and bonded task times for
	// the latest compute phase, read by the tracing emission (tracing.go).
	nbT, bT float64
}

func (ws *wstate) add(i int32, fv vec.V3) {
	if !ws.mark[i] {
		ws.mark[i] = true
		ws.touch = append(ws.touch, i)
	}
	ws.f[i] = ws.f[i].Add(fv)
}

// Engine runs molecular dynamics across a pool of goroutine workers.
type Engine struct {
	Sys *topology.System
	FF  *forcefield.Params
	St  *topology.State

	// RebalanceEvery sets how many steps run between load-balancing
	// passes (0 disables automatic rebalancing; call Rebalance manually).
	RebalanceEvery int

	// LB is the load-balancing strategy Rebalance applies; nil selects
	// the default ldb.GreedyRefine. Resolve registry names with
	// ldb.Lookup ("greedy+refine", "refine-only", "hierarchical",
	// "diffusion", "none").
	LB ldb.Strategy

	// Thermo, when non-nil, is applied after every step (NVT dynamics).
	Thermo thermo.Thermostat

	workers  int
	grid     *spatial.Grid // cells of edge ≥ cutoff+skin: the task decomposition
	tasks    []task
	assign   []int // task → worker
	cellHome []int // cell → initially responsible worker (for ldb locality)
	terms    []bondedRef

	forces  []vec.V3 // reduced forces
	wstates []wstate // per-worker accumulators with touched-set tracking
	wenergy []seq.Energies

	// Persistent worker pool: spawning 2·workers goroutines per force
	// evaluation was the last per-step allocation source, so a fixed pool
	// parks on workCh instead. A job k < workers is compute phase for
	// worker k; k in [workers, 2·workers) is reduce phase for worker
	// k-workers; k ≥ 2·workers runs pmeFn (a PME mesh phase) for worker
	// k-2·workers.
	poolOnce sync.Once
	workCh   chan int
	wg       sync.WaitGroup
	pmeFn    func(w int)

	// pme, when non-nil, holds the full-electrostatics slow-force solver
	// (see pme.go); the pair kernel then evaluates the erfc real-space
	// term and Step follows the impulse-MTS reciprocal schedule.
	pme *pme.Solver

	// clb is the global cluster pair list and its kernel (clusterlist.go).
	clb parClusterState

	cur      seq.Energies
	fresh    bool
	steps    int
	balances int

	// tr, when non-nil, receives per-phase execution records (tracing.go).
	tr *trace.Recorder

	// metrics, when non-nil, receives the always-on telemetry vector
	// after every step (see metrics.go).
	metrics *ftdc.Recorder
}

// DefaultClusterM × DefaultClusterN is the cluster geometry New uses when
// given none: the shape every benchmark workload runs, within 5 % of 4×4
// and 8×8 on the 92k-atom step (BENCH_6.json).
const DefaultClusterM, DefaultClusterN = 4, 8

// New creates an engine with the given number of workers (0 = NumCPU)
// over m×n cluster pair lists (0, 0 = the default geometry). The spatial
// grid has cells at least cutoff+skin wide, and work decomposes into one
// nonbonded task per cell plus chunks of bonded terms.
func New(sys *topology.System, ff *forcefield.Params, st *topology.State, workers, m, n int) (*Engine, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if m == 0 && n == 0 {
		m, n = DefaultClusterM, DefaultClusterN
	}
	if sys.N() != len(st.Pos) || sys.N() != len(st.Vel) {
		return nil, fmt.Errorf("par: state size does not match system")
	}
	if !sys.ExclusionsBuilt() {
		return nil, fmt.Errorf("par: exclusions not built")
	}
	grid, err := spatial.NewGrid(sys.Box, ff.Cutoff+seq.DefaultClusterSkin)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Sys: sys, FF: ff, St: st,
		RebalanceEvery: 20,
		workers:        workers,
		grid:           grid,
		forces:         make([]vec.V3, sys.N()),
		wstates:        make([]wstate, workers),
		wenergy:        make([]seq.Energies, workers),
	}
	if err := e.clb.init(sys, ff, m, n); err != nil {
		return nil, err
	}
	for w := range e.wstates {
		e.wstates[w] = wstate{
			f:     make([]vec.V3, sys.N()),
			touch: make([]int32, 0, sys.N()),
			mark:  make([]bool, sys.N()),
		}
	}
	e.buildTasks()
	e.staticAssign()
	return e, nil
}

// Workers returns the worker count.
func (e *Engine) Workers() int { return e.workers }

// NumTasks returns the number of decomposed work units.
func (e *Engine) NumTasks() int { return len(e.tasks) }

// Balances returns how many load-balancing passes have run.
func (e *Engine) Balances() int { return e.balances }

// buildTasks creates one cluster task per cell (its cluster range is
// filled in on every list rebuild; the task objects, and their measured
// times, persist) plus the bonded chunks.
func (e *Engine) buildTasks() {
	np := e.grid.NumPatches()
	for c := 0; c < np; c++ {
		e.tasks = append(e.tasks, task{kind: taskCluster, cell: c, cells: []int{c}})
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
// the engine's LB strategy (default ldb.GreedyRefine, the same
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
	strat := e.LB
	if strat == nil {
		strat = &ldb.GreedyRefine{}
	}
	e.assign = strat.Map(prob, e.balances)
	e.balances++
}

// ComputeForces evaluates all forces in parallel and returns energies
// (kinetic included).
func (e *Engine) ComputeForces() seq.Energies {
	// The list rebuilds only when it went stale, and in the driver, so a
	// rebuild step evaluates exactly the list a replay step would (bitwise
	// rebuild-vs-replay).
	if !e.clb.guard.Valid(e.St.Pos, e.Sys.Box) {
		e.rebuildClusters()
	}
	e.clb.data.LoadPositions(e.clb.list, e.St.Pos)

	t := e.phaseNow()
	e.poolOnce.Do(e.startPool)
	e.wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		e.workCh <- w
	}
	e.wg.Wait()
	if e.tr.Enabled() {
		e.emitComputePhase(t)
		t = e.tr.Now()
	}

	// Deterministic sparse reduction: each reducer owns an atom range and
	// adds worker contributions in fixed worker order, visiting only atoms
	// the worker actually touched (its sorted touch list locates the range
	// by binary search).
	e.wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		e.workCh <- e.workers + w
	}
	e.wg.Wait()
	e.phaseEmit("reduce", trace.CatComm, t)

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

// startPool launches the persistent workers (once, at first evaluation).
// They park on workCh between phases; channel sends of plain ints and the
// shared WaitGroup keep the steady-state dispatch allocation-free.
func (e *Engine) startPool() {
	e.workCh = make(chan int)
	for k := 0; k < e.workers; k++ {
		go e.workerLoop()
	}
}

func (e *Engine) workerLoop() {
	n := e.Sys.N()
	chunk := (n + e.workers - 1) / e.workers
	for job := range e.workCh {
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

// computeWorker is phase one: run the worker's assigned tasks into its
// private accumulator. Zeroing covers only the atoms touched during the
// previous evaluation.
func (e *Engine) computeWorker(w int) {
	ws := &e.wstates[w]
	for _, i := range ws.touch {
		ws.f[i] = vec.Zero
		ws.mark[i] = false
	}
	ws.touch = ws.touch[:0]

	var en seq.Energies
	var nbT, bT float64
	for ti := range e.tasks {
		if e.assign[ti] != w {
			continue
		}
		start := time.Now()
		t := &e.tasks[ti]
		if t.kind == taskBonded {
			e.bondedRange(t.lo, t.hi, ws, &en)
		} else {
			e.runClusterTask(t, ws, &en)
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
	e.flushClusterForces(ws)
	ws.nbT, ws.bT = nbT, bT
	slices.Sort(ws.touch)
	e.wenergy[w] = en
}

// reduceRange is phase two: sum worker contributions for atoms [lo, hi).
func (e *Engine) reduceRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		e.forces[i] = vec.Zero
	}
	for w := 0; w < e.workers; w++ {
		ws := &e.wstates[w]
		k, _ := slices.BinarySearch(ws.touch, int32(lo))
		for ; k < len(ws.touch) && ws.touch[k] < int32(hi); k++ {
			i := ws.touch[k]
			e.forces[i] = e.forces[i].Add(ws.f[i])
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

// Forces returns the reduced force array from the last evaluation.
func (e *Engine) Forces() []vec.V3 {
	if !e.fresh {
		e.ComputeForces()
	}
	return e.forces
}

// Energies returns the last evaluation's energies plus current kinetic.
// With full electrostatics enabled, Elec and Virial include the slow
// reciprocal-space terms from their latest evaluation (up to mtsPeriod-1
// steps old mid-cycle, by construction of the impulse scheme).
func (e *Engine) Energies() seq.Energies {
	if !e.fresh {
		e.ComputeForces()
	}
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
	e.clb.guard.Invalidate()
	if e.pme != nil {
		e.pme.Invalidate()
	}
}

// ResetLists drops the cluster-list history so the next force evaluation
// rebuilds the list from the positions it sees, instead of replaying a
// list built at earlier positions. Replay and rebuild agree on which
// pairs contribute, but not on the accumulation order, so their sums
// differ in ulps. Dropping the history makes the next evaluation a pure
// function of positions; the job server calls this after every checkpoint
// so the uninterrupted continuation stays bitwise identical to a run
// resumed from that checkpoint.
func (e *Engine) ResetLists() { e.clb.guard.Drop() }

// Kinetic returns the kinetic energy in kcal/mol.
func (e *Engine) Kinetic() float64 {
	ke := 0.0
	for i, v := range e.St.Vel {
		ke += 0.5 * e.Sys.Atoms[i].Mass * v.Norm2()
	}
	return ke / units.ForceToAccel
}

// Temperature returns the instantaneous temperature in K.
func (e *Engine) Temperature() float64 {
	return units.KineticToKelvin(e.Kinetic(), 3*e.Sys.N())
}

// Step advances one velocity-Verlet step of dt femtoseconds, with the
// force evaluation parallelized across workers. With full electrostatics
// enabled the step follows the impulse-MTS schedule in stepPME.
func (e *Engine) Step(dt float64) {
	if e.pme != nil {
		e.stepPME(dt)
		return
	}
	if !e.fresh {
		e.ComputeForces()
	}
	pos, vel := e.St.Pos, e.St.Vel
	t := e.phaseNow()
	var maxV2 float64
	for i := range pos {
		a := e.forces[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
		vel[i] = vel[i].Add(a.Scale(0.5 * dt))
		if v2 := vel[i].Norm2(); v2 > maxV2 {
			maxV2 = v2
		}
		pos[i] = vec.Wrap(pos[i].Add(vel[i].Scale(dt)), e.Sys.Box)
	}
	e.advanceGuard(maxV2, dt)
	e.phaseEmit("integrate", trace.CatIntegration, t)
	e.ComputeForces()
	t = e.phaseNow()
	for i := range vel {
		a := e.forces[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
		vel[i] = vel[i].Add(a.Scale(0.5 * dt))
	}
	if e.Thermo != nil {
		e.Thermo.Apply(e.Sys, e.St, dt)
	}
	e.phaseEmit("integrate", trace.CatIntegration, t)
	e.steps++
	if e.RebalanceEvery > 0 && e.steps%e.RebalanceEvery == 0 {
		e.Rebalance()
	}
	e.markStep()
}

// Run advances n steps and returns the final energies.
func (e *Engine) Run(n int, dt float64) seq.Energies {
	for s := 0; s < n; s++ {
		e.Step(dt)
	}
	return e.Energies()
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
