package forcefield

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"gonamd/internal/spatial"
	"gonamd/internal/vec"
)

// The dual pair list's checks: the inner view a build emits or a prune
// sweep writes holds, in each entry and so in the list's order, the
// entry's mask cut to the pairs strictly within PruneDist, and while no
// atom has moved half the inner skin since that prune it holds every
// pair the outer sweep evaluates, so every sweep gives the same bits.

// sweepKern is a production kernel with its sweep selectable.
type sweepKern func(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, sweep ClusterSweep, fx, fy, fz []float64) (float64, float64, float64)

// kernelR2 is the r² of slots si, sj with the kernels' arithmetic
// (wrapped coordinates, branchy minimum image).
func kernelR2(l *spatial.ClusterList, d *ClusterData, si, sj int) float64 {
	wrap := func(dv, box float64) float64 {
		if dv > box/2 {
			dv -= box
		} else if dv < -box/2 {
			dv += box
		}
		return dv
	}
	dx := wrap(d.X[si]-d.X[sj], l.Box.X)
	dy := wrap(d.Y[si]-d.Y[sj], l.Box.Y)
	dz := wrap(d.Z[si]-d.Z[sj], l.Box.Z)
	return dx*dx + dy*dy + dz*dz
}

// checkInnerView verifies the inner view against the outer list at the
// positions loaded in d, the prune positions: every entry's Inner is its
// mask cut to r² < PruneDist². It counts the entries the view keeps with
// fewer bits (partly pruned) and those it prunes away (fully), and the
// listed pairs at exactly PruneDist.
func checkInnerView(l *spatial.ClusterList, d *ClusterData) (c innerCensus, err error) {
	if l.PruneDist <= 0 {
		return c, fmt.Errorf("the list has no inner view")
	}
	prune2 := l.PruneDist * l.PruneDist
	for ic := 0; ic < l.NumI(); ic++ {
		for k := l.EntryOff[ic]; k < l.EntryOff[ic+1]; k++ {
			e := l.Entries[k]
			var want uint64
			for m := e.Mask; m != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				switch r2 := kernelR2(l, d, ic*l.M+t/l.N, int(e.J)*l.N+t%l.N); {
				case r2 < prune2:
					want |= 1 << uint(t)
				case r2 == prune2:
					c.ties++
				}
			}
			if uint64(e.Inner) != want {
				return c, fmt.Errorf("i-cluster %d, j-cluster %d: inner mask %#x, want %#x (outer %#x)", ic, e.J, e.Inner, want, e.Mask)
			}
			switch want {
			case 0:
				c.dropped++
			case e.Mask:
			default:
				c.partly++
			}
		}
	}
	return c, nil
}

// innerCensus is what checkInnerView counts.
type innerCensus struct{ partly, dropped, ties int }

// displaced returns pos with every atom moved by less than maxMove in a
// random direction.
func displaced(rng *rand.Rand, pos []vec.V3, maxMove float64) []vec.V3 {
	out := make([]vec.V3, len(pos))
	for i, p := range pos {
		dir := vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if n := dir.Norm(); n > 0 {
			dir = dir.Scale(rng.Float64() * maxMove * 0.999 / n)
		} else {
			dir = vec.Zero
		}
		out[i] = p.Add(dir)
	}
	return out
}

// sweepResult is one sweep's slot forces and (evdw, eelec, virial).
type sweepResult struct {
	f  [3][]float64
	en [3]float64
}

func runSweep(p *Params, l *spatial.ClusterList, d *ClusterData, kern sweepKern, sweep ClusterSweep) sweepResult {
	ns := l.Slots()
	var r sweepResult
	for k := range r.f {
		r.f[k] = make([]float64, ns, ns+8)
	}
	ics := make([]int32, l.NumI())
	for i := range ics {
		ics[i] = int32(i)
	}
	r.en[0], r.en[1], r.en[2] = kern(p, l, d, ics, sweep, r.f[0], r.f[1], r.f[2])
	return r
}

// sameBits reports the first difference between two sweeps' results.
func (r sweepResult) sameBits(o sweepResult) error {
	for k := range r.en {
		if math.Float64bits(r.en[k]) != math.Float64bits(o.en[k]) {
			return fmt.Errorf("energies/virial %v, outer sweep %v", r.en, o.en)
		}
	}
	for k := range r.f {
		for s := range r.f[k] {
			if math.Float64bits(r.f[k][s]) != math.Float64bits(o.f[k][s]) {
				return fmt.Errorf("slot %d force component %d: %g, outer sweep %g", s, k, r.f[k][s], o.f[k][s])
			}
		}
	}
	return nil
}

// checkPrunedSweeps builds the system's M×N list with its inner view at
// Cutoff + spatial.ClusterPruneSkin (tiles of over 32 pairs must get
// none), requires partly and fully pruned
// entries and a pair at exactly the prune distance in it, and checks
// that kern gives the outer sweep's bits through the emitted inner view
// at the build positions, and through a prune sweep there, whose view
// must be the emitted one (the tie dropped by both); then, at positions
// displaced by less than half the inner skin, through the still-emitted
// view, through a prune sweep, and through the view that prune wrote.
func (s *clusterTestSystem) checkPrunedSweeps(t *testing.T, m, n int, kern sweepKern) {
	t.Helper()
	b, err := spatial.NewClusterBuilder(s.box, m, n, s.params.Cutoff+s.skin)
	if err != nil {
		t.Fatal(err)
	}
	b.PruneDist = s.params.Cutoff + spatial.ClusterPruneSkin
	l := b.Build(s.pos, s.forEachExcl)
	if m*n > 32 {
		if l.PruneDist != 0 {
			t.Fatalf("%dx%d list has an inner view; its tiles do not fit the Inner word", m, n)
		}
		return
	}
	d := &ClusterData{}
	d.LoadStatic(l, s.types, s.charges)
	d.LoadPositions(l, s.pos)
	c, err := checkInnerView(l, d)
	if err != nil {
		t.Fatalf("emitted inner view: %v", err)
	}
	if c.partly == 0 || c.dropped == 0 || c.ties == 0 {
		t.Fatalf("test system lost a pruning case: %d partly pruned entries, %d fully pruned, %d pairs at the prune distance", c.partly, c.dropped, c.ties)
	}
	step := func(what string, sweep ClusterSweep) {
		t.Helper()
		outer := runSweep(s.params, l, d, kern, SweepOuter)
		if err := runSweep(s.params, l, d, kern, sweep).sameBits(outer); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	step("emitted inner view at the build positions", SweepInner)
	step("prune sweep at the build positions", SweepPrune)
	if _, err := checkInnerView(l, d); err != nil {
		t.Fatalf("inner view pruned at the build positions: %v", err)
	}

	moved := displaced(rand.New(rand.NewSource(int64(m*8+n))), s.pos, spatial.ClusterPruneSkin/2)
	d.LoadPositions(l, moved)
	step("emitted inner view at displaced positions", SweepInner)
	step("prune sweep", SweepPrune)
	if _, err := checkInnerView(l, d); err != nil {
		t.Fatalf("pruned inner view: %v", err)
	}
	step("pruned inner view", SweepInner)
}

// FuzzClusterPrune checks the inner view over random boxes, cutoffs,
// skins, inner skins b ≤ skin/2, cluster geometries of up to 32 pairs
// per tile (wider ones must get no view) and exclusions, with
// the analytic kernel: the view the build emits and the one a prune
// sweep writes (at positions moved < b/2 from the build) are each, per
// outer entry, its mask cut to r² < (rc + b)² at their positions
// (checkInnerView); every non-excluded pair within rc at
// positions moved < b/2 again is in the pruned view; and an inner sweep
// there gives the outer sweep's bits.
func FuzzClusterPrune(f *testing.F) {
	f.Add(uint64(1), uint16(180), 3.0, 5.0, 7.0, 5.0, 1.5, 0.6, uint8(3), uint8(7))
	f.Add(uint64(2), uint16(120), 0.0, 0.0, 0.0, 3.0, 0.5, 1.0, uint8(0), uint8(0))
	f.Add(uint64(3), uint16(250), 9.0, 1.0, 4.0, 6.5, 2.0, 0.1, uint8(7), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, natoms uint16, bx, by, bz, rc, skin, inner float64, m, n uint8) {
		frac := func(v, def float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return def
			}
			return math.Mod(math.Abs(v), 1)
		}
		s := newClusterTestSystem(t, int64(seed), 0, 0)
		rcut := 2 + 5*frac(rc/7, 0.5)
		s.skin = 0.2 + 1.8*frac(skin/2, 0.5)
		b := s.skin / 2 * (0.05 + 0.95*frac(inner, 0.5))
		s.params.Cutoff, s.params.SwitchDist = rcut, rcut-1
		if err := s.params.Validate(); err != nil {
			t.Fatal(err)
		}
		minEdge := 2 * (rcut + s.skin)
		s.box = vec.New(minEdge+12*frac(bx/12, 0), minEdge+12*frac(by/12, 0), minEdge+12*frac(bz/12, 0))
		rng := rand.New(rand.NewSource(int64(seed)))
		na := int(natoms) % 260
		for i := 0; i < na; i++ {
			s.pos = append(s.pos, vec.New((rng.Float64()*3-1)*s.box.X, (rng.Float64()*3-1)*s.box.Y, (rng.Float64()*3-1)*s.box.Z))
			s.types = append(s.types, int32(rng.Intn(3)))
			s.charges = append(s.charges, rng.Float64()*0.8-0.4)
		}
		for k := 0; k < na/3; k++ {
			i, j := int32(rng.Intn(na)), int32(rng.Intn(na))
			if i < j {
				s.excl[[2]int32{i, j}] = rng.Intn(2) == 0
			}
		}

		builder, err := spatial.NewClusterBuilder(s.box, 1+int(m)%8, 1+int(n)%8, rcut+s.skin)
		if err != nil {
			t.Fatal(err)
		}
		builder.PruneDist = rcut + b
		l := builder.Build(s.pos, s.forEachExcl)
		if l.M*l.N > 32 {
			if l.PruneDist != 0 {
				t.Fatalf("%dx%d list has an inner view", l.M, l.N)
			}
			return
		}
		d := &ClusterData{}
		d.LoadStatic(l, s.types, s.charges)
		d.LoadPositions(l, s.pos)
		if _, err := checkInnerView(l, d); err != nil {
			t.Fatalf("emitted inner view: %v", err)
		}
		kern := (*Params).nonbondedCluster
		p1 := displaced(rng, s.pos, b/2)
		d.LoadPositions(l, p1)
		runSweep(s.params, l, d, kern, SweepPrune)
		if _, err := checkInnerView(l, d); err != nil {
			t.Fatalf("pruned inner view: %v", err)
		}

		p2 := displaced(rng, p1, b/2)
		d.LoadPositions(l, p2)
		rc2 := rcut * rcut
		for i := 0; i < na; i++ {
			for j := i + 1; j < na; j++ {
				if mod, ok := s.excl[[2]int32{int32(i), int32(j)}]; ok && !mod {
					continue
				}
				si, sj := int(l.SlotOf[i]), int(l.SlotOf[j])
				if si > sj {
					si, sj = sj, si
				}
				if kernelR2(l, d, si, sj) >= rc2 {
					continue
				}
				ic, jc := si/l.M, int32(sj/l.N)
				bit := uint64(1) << uint(si%l.M*l.N+sj%l.N)
				found := false
				for _, e := range l.Entries[l.EntryOff[ic]:l.EntryOff[ic+1]] {
					found = found || (e.J == jc && uint64(e.Inner)&bit != 0)
				}
				if !found {
					t.Fatalf("atoms %d, %d are within the cutoff at positions moved < b/2 from the prune, but not in the inner view", i, j)
				}
			}
		}
		if err := runSweep(s.params, l, d, kern, SweepInner).sameBits(runSweep(s.params, l, d, kern, SweepOuter)); err != nil {
			t.Fatalf("inner sweep at positions moved < b/2 from the prune: %v", err)
		}
	})
}
