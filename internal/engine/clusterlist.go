package engine

import (
	"gonamd/internal/forcefield"
	"gonamd/internal/seq"
	"gonamd/internal/spatial"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

// Cluster pair lists: one global M×N cluster list
// (spatial.ClusterBuilder), rebuilt in the driver under the skin/2 drift
// rule (spatial.ListGuard), and walked through its inner view: a dual
// pair list. The outer list keeps the pairs within cutoff + 1.5 Å; the
// inner view keeps, per i-cluster and in list order, those within cutoff
// + spatial.ClusterPruneSkin at its last prune. Every build emits it; a
// second skin/2 guard (skin ClusterPruneSkin) says when it is stale, and
// then the next evaluation's tasks sweep the outer list, each rewriting
// the inner view of its own i-clusters from the r² the sweep computes
// anyway (in parallel, no driver pass). Every other evaluation walks the
// inner view, which holds every pair the outer sweep would evaluate, in
// the same order, so the forces carry the same bits either way. Restore
// (whose build at the anchor emits a view for the anchor, not for the
// restored positions) and the reference-kernel switch mark the view
// stale; Invalidate voids its drift bound as it does the list's. The
// reference kernel always walks the outer list.
//
// Each i-cluster is assigned to the spatial cell containing its
// bounding-box center, and nonbonded work decomposes into one task per
// cell covering that cell's contiguous run of the cell-grouped cluster
// order — so the measured-task-time load balancers work on stable task
// identities whose measurements survive rebuilds. Workers accumulate
// slot-indexed forces into private buffers and flush every slot into
// their atom-indexed accumulators after the task loop; the buffers are
// re-zeroed while flushing, so no bulk clear is ever needed and the
// steady state stays allocation-free.

// clusterState is the engine's cluster list, its validity guard, and
// the kernel operands every worker reads.
type clusterState struct {
	kernel  forcefield.ClusterKernel // shared read-only by the workers
	builder *spatial.ClusterBuilder
	list    *spatial.ClusterList
	guard   spatial.ListGuard
	prune   spatial.ListGuard       // the inner view's guard
	sweep   forcefield.ClusterSweep // this evaluation's
	data    forcefield.ClusterData
	exclFn  func(func(i, j int32, modified bool)) // bound once; rebuilds allocate nothing

	// Atom-indexed kernel inputs, extracted once from the topology.
	types   []int32
	charges []float64

	// clOrder holds all i-cluster indices grouped by owning cell; the
	// cell's taskCluster covers clOrder[task.lo:task.hi]. cellOf/cellCnt
	// are counting-sort scratch reused across rebuilds.
	clOrder []int32
	cellOf  []int32
	cellCnt []int32
}

// newClusterState validates the cluster geometry and selects the kernel
// the force field's electrostatics call for (forcefield.ClusterKernel).
func newClusterState(sys *topology.System, ff *forcefield.Params, m, n int) (*clusterState, error) {
	builder, err := spatial.NewClusterBuilder(sys.Box, m, n, ff.Cutoff+seq.DefaultClusterSkin)
	if err != nil {
		return nil, err
	}
	builder.PruneDist = ff.Cutoff + spatial.ClusterPruneSkin
	kernel, err := ff.ClusterKernel()
	if err != nil {
		return nil, err
	}
	na := sys.N()
	c := &clusterState{kernel: kernel, builder: builder, exclFn: sys.ForEachExcludedPair,
		guard: spatial.NewListGuard(seq.DefaultClusterSkin),
		prune: spatial.NewListGuard(spatial.ClusterPruneSkin),
		types: make([]int32, na), charges: make([]float64, na)}
	for i := 0; i < na; i++ {
		c.types[i] = sys.Atoms[i].Type
		c.charges[i] = sys.Atoms[i].Charge
	}
	return c, nil
}

// UseReferenceClusterKernel toggles evaluation through the scalar-replay
// reference kernel (forcefield.NonbondedClusterRef) instead of the
// production one, over the same list. The conformance tests use it to
// compare the two through the full engine pipeline. A no-op in reference
// mode, which has no cluster kernel. The inner view goes stale: the
// reference kernel never prunes it.
func (e *Engine) UseReferenceClusterKernel(on bool) {
	if e.clb != nil {
		e.clb.kernel.UseReference(on)
		e.clb.prune.Expire()
		e.fresh = false
	}
}

// prepareClusters readies the list for an evaluation at the current
// positions: it rebuilds the list when the outer guard says stale, then
// picks the sweep — a prune when the inner guard says stale, the inner
// view otherwise, the outer list for tiles too wide to carry a view.
// Runs in the driver, so every task of the evaluation sweeps the same
// way.
func (e *Engine) prepareClusters() {
	c := e.clb
	pos := e.St.Pos
	// The list rebuilds only when it went stale, and in the driver, so a
	// rebuild step evaluates exactly the list a replay step would (bitwise
	// rebuild-vs-replay).
	if !c.guard.Valid(pos, e.Sys.Box) {
		e.rebuildClusters(pos)
		c.prune.Rebase(pos) // the builder emitted the inner view at pos
	}
	c.data.LoadPositions(c.list, pos)
	switch {
	case c.list.PruneDist == 0:
		c.sweep = forcefield.SweepOuter // tiles too wide for an inner view
	case !c.kernel.Reference() && !c.prune.Valid(pos, e.Sys.Box):
		c.sweep = forcefield.SweepPrune
		c.prune.Rebase(pos)
	default:
		c.sweep = forcefield.SweepInner
	}
}

// ClusterRebuilds reports how many times the cluster list was (re)built.
func (e *Engine) ClusterRebuilds() int {
	if e.clb == nil {
		return 0
	}
	return e.clb.guard.Builds
}

// rebuildClusters regenerates the global cluster list at positions pos
// (the current ones, or a restored anchor), refreshes the static slot
// tables, regroups clusters by owning cell into clOrder, updates every
// cluster task's range (the task objects — and their measured times —
// persist), and sizes the workers' slot force buffers. Runs in the
// driver, strictly before evaluation, so a rebuild step evaluates exactly
// the same list a replay step would.
func (e *Engine) rebuildClusters(pos []vec.V3) {
	c := e.clb
	c.list = c.builder.Build(pos, c.exclFn)
	c.data.LoadStatic(c.list, c.types, c.charges)

	numI := c.list.NumI()
	np := e.grid.NumPatches()
	c.cellOf = resizeI32p(c.cellOf, numI)
	c.cellCnt = resizeI32p(c.cellCnt, np+1)
	c.clOrder = resizeI32p(c.clOrder, numI)
	for i := 0; i <= np; i++ {
		c.cellCnt[i] = 0
	}
	for ic := 0; ic < numI; ic++ {
		cell := e.grid.PatchOf(c.list.CenterI(ic))
		c.cellOf[ic] = int32(cell)
		c.cellCnt[cell]++
	}
	// Prefix sums → cell offsets; reuse cellCnt as the write cursor.
	sum := int32(0)
	for cell := 0; cell < np; cell++ {
		n := c.cellCnt[cell]
		c.cellCnt[cell] = sum
		sum += n
	}
	c.cellCnt[np] = sum
	for ti := range e.tasks {
		t := &e.tasks[ti]
		if t.kind == taskCluster {
			t.lo = int(c.cellCnt[t.cell])
			t.hi = int(c.cellCnt[t.cell+1])
		}
	}
	for ic := 0; ic < numI; ic++ {
		cell := c.cellOf[ic]
		c.clOrder[c.cellCnt[cell]] = int32(ic)
		c.cellCnt[cell]++
	}
	// cellCnt is now shifted one cell left (cursor ran to each cell's
	// end); task ranges were captured above, so nothing else reads it.

	// Worker slot buffers: sized to the padded slot count, zeroed by
	// construction and kept zero by the flush (see flushClusterForces).
	slots := c.list.Slots()
	for w := range e.wstates {
		ws := &e.wstates[w]
		ws.fxs = growZeroF64(ws.fxs, slots)
		ws.fys = growZeroF64(ws.fys, slots)
		ws.fzs = growZeroF64(ws.fzs, slots)
	}
	c.guard.Rebase(pos)
}

// runClusterTask evaluates one cell's clusters with the selected
// kernel.
func (e *Engine) runClusterTask(t *task, ws *wstate, en *seq.Energies) {
	c := e.clb
	ics := c.clOrder[t.lo:t.hi]
	if len(ics) == 0 {
		return
	}
	evdw, eelec, vir := c.kernel.Eval(e.FF, c.list, &c.data, ics, c.sweep, ws.fxs, ws.fys, ws.fzs)
	en.VdW += evdw
	en.Elec += eelec
	en.Virial += vir
}

// flushClusterForces folds the worker's slot force buffers into its
// atom-indexed accumulator and re-zeroes them in the same walk, restoring
// the all-zero invariant without a bulk clear. Every atom has one slot,
// so the order of this walk does not show in the sums, and a slot no task
// of this worker wrote adds +0.
func (e *Engine) flushClusterForces(ws *wstate) {
	for s, a := range e.clb.list.Atom {
		if a >= 0 {
			ws.add(a, vec.New(ws.fxs[s], ws.fys[s], ws.fzs[s]))
		}
		ws.fxs[s], ws.fys[s], ws.fzs[s] = 0, 0, 0
	}
}

func resizeI32p(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/8+8)
	}
	return s[:n]
}

// growZeroF64 returns a slice of length n whose every element is zero,
// reusing the input's storage when possible (the caller maintains the
// all-zero invariant on the full capacity). Capacity stays ≥ n+8: the
// cluster kernels take fixed 8-capacity re-slices of a cluster's slot
// run (see forcefield.NonbondedCluster).
func growZeroF64(s []float64, n int) []float64 {
	if cap(s) < n+8 {
		return make([]float64, n, n+n/8+8)
	}
	return s[:n]
}
