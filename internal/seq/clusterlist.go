package seq

import (
	"math"

	"gonamd/internal/forcefield"
	"gonamd/internal/spatial"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

// DefaultClusterSkin is the Verlet skin (Å) of the cluster pair lists
// on both engines.
const DefaultClusterSkin = 1.5

// clusterState is the engine-side state of cluster-pair-list nonbonded
// evaluation: the builder (storage reused across rebuilds), the current
// list and its validity guard, the kernel selection, and slot-indexed
// kernel operands and force accumulators.
type clusterState struct {
	kernel  forcefield.ClusterKernel
	builder *spatial.ClusterBuilder
	list    *spatial.ClusterList
	guard   spatial.ListGuard
	data    forcefield.ClusterData
	exclFn  func(func(i, j int32, modified bool)) // bound once; rebuilds allocate nothing

	fxs, fys, fzs []float64 // slot-indexed force accumulators
	ics           []int32   // identity i-cluster order (seq evaluates all)

	// Atom-indexed kernel inputs, extracted once from the topology.
	types   []int32
	charges []float64
}

// EnableClusterLists switches the engine's nonbonded evaluation to M×N
// cluster pair lists with the default skin, rebuilt under the skin/2
// drift rule (spatial.ListGuard). The kernel follows the force field's
// electrostatics (forcefield.ClusterKernel).
//
// Construct with gonamd.NewSequential(sys, ff, st,
// gonamd.WithClusterLists(m, n)) instead where possible; the option
// validates the geometry and delegates here.
func (e *Engine) EnableClusterLists(m, n int) error {
	b, err := spatial.NewClusterBuilder(e.Sys.Box, m, n, e.FF.Cutoff+DefaultClusterSkin)
	if err != nil {
		return err
	}
	kernel, err := e.FF.ClusterKernel()
	if err != nil {
		return err
	}
	e.clusters = &clusterState{kernel: kernel, builder: b, exclFn: e.Sys.ForEachExcludedPair,
		guard: spatial.NewListGuard(DefaultClusterSkin)}
	e.fresh = false
	return nil
}

// UseReferenceClusterKernel toggles evaluation through the scalar-replay
// reference kernel (forcefield.NonbondedClusterRef) instead of the
// production one, over the same list. The conformance tests use it to
// compare the two through the full engine pipeline.
func (e *Engine) UseReferenceClusterKernel(on bool) {
	if e.clusters != nil {
		e.clusters.kernel.UseReference(on)
		e.fresh = false
	}
}

// ClusterRebuilds reports how many times the cluster list was (re)built.
func (e *Engine) ClusterRebuilds() int {
	if e.clusters == nil {
		return 0
	}
	return e.clusters.guard.Builds
}

// advanceGuard feeds one integration drift's maximum displacement bound
// (|v|max·dt) to the list's drift guard.
func (e *Engine) advanceGuard(maxV2, dt float64) {
	if e.clusters != nil {
		e.clusters.guard.Advance(math.Sqrt(maxV2) * dt)
	}
}

// loadAtoms extracts the atom-indexed type and charge arrays the
// slot-table loads read from.
func (c *clusterState) loadAtoms(sys *topology.System) {
	n := sys.N()
	c.types = make([]int32, n)
	c.charges = make([]float64, n)
	for i := 0; i < n; i++ {
		c.types[i] = sys.Atoms[i].Type
		c.charges[i] = sys.Atoms[i].Charge
	}
}

// buildClusterList regenerates the cluster list and the slot-indexed
// static operands at the current positions.
func (e *Engine) buildClusterList() {
	c := e.clusters
	c.list = c.builder.Build(e.St.Pos, c.exclFn)
	if c.types == nil {
		c.loadAtoms(e.Sys)
	}
	c.data.LoadStatic(c.list, c.types, c.charges)
	numI := c.list.NumI()
	if cap(c.ics) < numI {
		c.ics = make([]int32, numI, numI+numI/8+8)
	} else {
		c.ics = c.ics[:numI]
	}
	for i := range c.ics {
		c.ics[i] = int32(i)
	}
	c.guard.Rebase(e.St.Pos)
}

// nonbondedFromClusters runs the cluster kernel over the whole list and
// scatters slot forces back to the atoms.
func (e *Engine) nonbondedFromClusters(en *Energies) {
	c := e.clusters
	l := c.list
	c.data.LoadPositions(l, e.St.Pos)
	ns := l.Slots()
	c.fxs = resizeF64(c.fxs, ns)
	c.fys = resizeF64(c.fys, ns)
	c.fzs = resizeF64(c.fzs, ns)
	for s := 0; s < ns; s++ {
		c.fxs[s], c.fys[s], c.fzs[s] = 0, 0, 0
	}
	evdw, eelec, vir := c.kernel.Eval(e.FF, l, &c.data, c.ics, c.fxs, c.fys, c.fzs)
	en.VdW += evdw
	en.Elec += eelec
	en.Virial += vir
	for s, a := range l.Atom {
		if a < 0 {
			continue
		}
		e.forces[a] = e.forces[a].Add(vec.New(c.fxs[s], c.fys[s], c.fzs[s]))
	}
}

// resizeF64 keeps capacity ≥ n+8: the cluster kernels take fixed
// 8-capacity re-slices of a cluster's slot run (see
// forcefield.NonbondedCluster).
func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n+8 {
		return make([]float64, n, n+n/8+8)
	}
	return s[:n]
}
