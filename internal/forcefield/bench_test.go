package forcefield

import (
	"fmt"
	"math/bits"
	"testing"

	"gonamd/internal/spatial"
	"gonamd/internal/vec"
	"gonamd/internal/xrand"
)

// Kernel micro-benchmarks: the per-pair and per-term costs these measure
// are the real-hardware analogues of the machine model's calibrated
// constants.

func BenchmarkNonbondedPair(b *testing.B) {
	p := Standard(12.0)
	rng := xrand.New(1)
	r2s := make([]float64, 1024)
	for i := range r2s {
		r := rng.Range(2, 11.9)
		r2s[i] = r * r
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		evdw, eelec, f := p.Nonbonded(TypeOW, TypeHW, -0.834, 0.417, r2s[i%1024], false)
		acc += evdw + eelec + f
	}
	_ = acc
}

func BenchmarkBondKernel(b *testing.B) {
	p := Standard(12.0)
	box := vec.New(50, 50, 50)
	ri, rj := vec.New(10, 10, 10), vec.New(11.4, 10.2, 9.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = p.BondForce(BondCC, ri, rj, box)
	}
}

func BenchmarkAngleKernel(b *testing.B) {
	p := Standard(12.0)
	box := vec.New(50, 50, 50)
	ri, rj, rk := vec.New(10, 10, 10), vec.New(11.4, 10.2, 9.9), vec.New(12.1, 11.3, 10.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, _ = p.AngleForce(AngleCCC, ri, rj, rk, box)
	}
}

func BenchmarkDihedralKernel(b *testing.B) {
	p := Standard(12.0)
	box := vec.New(50, 50, 50)
	ri, rj := vec.New(10, 10, 10), vec.New(11.4, 10.2, 9.9)
	rk, rl := vec.New(12.1, 11.3, 10.4), vec.New(13.3, 11.1, 11.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, _, _ = p.DihedralForce(DihedralBackbone, ri, rj, rk, rl, box)
	}
}

// clusterBench is a water-density random box with an M×N cluster list at
// the ApoA-I production geometry (9 Å cutoff, 1.5 Å skin) and its inner
// view at the engines' inner skin, so the cluster kernels can be
// measured in isolation from the engines.
type clusterBench struct {
	p          *Params
	l          *spatial.ClusterList
	d          *ClusterData
	ics        []int32
	fx, fy, fz []float64
	pairs      int // listed candidates: the mask bits an outer sweep walks
	inner      int // the inner view's candidates
	useful     int // candidates inside the cutoff
}

func clusterBenchSetup(b *testing.B, m, n int) *clusterBench {
	b.Helper()
	const side, listDist = 97.3, 10.5
	p := Standard(9.0)
	box := vec.New(side, side, side)
	rng := xrand.New(7)
	sideF := float64(side)
	na := int(sideF * sideF * sideF * 0.1) // ~bulk-water atom density
	pos := make([]vec.V3, na)
	types := make([]int32, na)
	charges := make([]float64, na)
	for i := range pos {
		pos[i] = vec.New(rng.Range(0, side), rng.Range(0, side), rng.Range(0, side))
		if i%3 == 0 {
			types[i], charges[i] = TypeOW, -0.834
		} else {
			types[i], charges[i] = TypeHW, 0.417
		}
	}
	builder, err := spatial.NewClusterBuilder(box, m, n, listDist)
	if err != nil {
		b.Fatal(err)
	}
	builder.PruneDist = p.Cutoff + spatial.ClusterPruneSkin
	l := builder.Build(pos, func(func(i, j int32, modified bool)) {})
	d := &ClusterData{}
	d.LoadStatic(l, types, charges)
	d.LoadPositions(l, pos)
	ns := l.Slots()
	ics := make([]int32, l.NumI())
	for i := range ics {
		ics[i] = int32(i)
	}
	census := sweepCensus(l, d, p.Cutoff*p.Cutoff)
	inner := 0
	for _, e := range l.Entries {
		inner += bits.OnesCount32(e.Inner)
	}
	return &clusterBench{p: p, l: l, d: d, ics: ics,
		fx: make([]float64, ns, ns+8), fy: make([]float64, ns, ns+8), fz: make([]float64, ns, ns+8),
		pairs: census.candidates, inner: inner, useful: census.inside}
}

// run times kern over the whole list, whose sweep walks cand
// candidates, and reports them with the cost per candidate (ns/pair,
// directly comparable to BenchmarkNonbondedPair's ns/op) and per
// in-cutoff pair (ns/useful-pair, the unit of the repository
// benchmark's forcefield.nb_ns_per_useful_pair).
func (c *clusterBench) run(b *testing.B, cand int, kern func() (evdw, eelec, virial float64)) {
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		evdw, eelec, vir := kern()
		acc += evdw + eelec + vir
	}
	_ = acc
	perSweep := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(cand), "candidates")
	b.ReportMetric(perSweep/float64(cand), "ns/pair")
	b.ReportMetric(perSweep/float64(c.useful), "ns/useful-pair")
}

// BenchmarkNonbondedCluster sweeps the whole list at four geometries,
// and, in the pruned row, the engines' 4×8 list through its inner view
// (the dual list's common step): the same useful pairs from fewer
// candidates.
func BenchmarkNonbondedCluster(b *testing.B) {
	for _, g := range [][2]int{{4, 4}, {8, 4}, {4, 8}, {8, 8}} {
		b.Run(fmt.Sprintf("%dx%d", g[0], g[1]), func(b *testing.B) {
			c := clusterBenchSetup(b, g[0], g[1])
			c.run(b, c.pairs, func() (float64, float64, float64) {
				return c.p.NonbondedCluster(c.l, c.d, c.ics, c.fx, c.fy, c.fz)
			})
		})
	}
	b.Run("pruned", func(b *testing.B) {
		c := clusterBenchSetup(b, 4, 8)
		c.run(b, c.inner, func() (float64, float64, float64) {
			return c.p.nonbondedCluster(c.l, c.d, c.ics, SweepInner, c.fx, c.fy, c.fz)
		})
	})
}

// The Ewald and tabulated rows run the engines' default geometry
// (par.DefaultClusterM×N = 4×8).

// BenchmarkNonbondedClusterEwald is the analytic kernel with the Ewald
// real-space electrostatics on — the erfc/exp-bound configuration the
// tabulated kernel exists to beat.
func BenchmarkNonbondedClusterEwald(b *testing.B) {
	c := clusterBenchSetup(b, 4, 8)
	pe := c.p.WithEwald(0.35)
	c.run(b, c.pairs, func() (float64, float64, float64) {
		return pe.NonbondedCluster(c.l, c.d, c.ics, c.fx, c.fy, c.fz)
	})
}

func BenchmarkNonbondedClusterTab(b *testing.B) {
	for _, bench := range []struct {
		name string
		beta float64
	}{{"shifted", 0}, {"ewald", 0.35}} {
		b.Run(bench.name, func(b *testing.B) {
			c := clusterBenchSetup(b, 4, 8)
			p := c.p
			if bench.beta > 0 {
				p = p.WithEwald(bench.beta)
			}
			tab, err := p.BuildInteractionTable(0)
			if err != nil {
				b.Fatal(err)
			}
			c.run(b, c.pairs, func() (float64, float64, float64) {
				return p.NonbondedClusterTab(tab, c.l, c.d, c.ics, c.fx, c.fy, c.fz)
			})
		})
	}
}
