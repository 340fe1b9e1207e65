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

// The two-phase sweep's edge cases, on a box of exactly twice the list
// distance (the smallest the minimum image allows, so displacements wrap
// in both directions on every axis): a dense blob that fills whole
// entries with in-cutoff pairs (the candidate buffer runs full, n = M·N),
// fringe entries whose candidates all sit in the skin shell (n = 0), a
// coincident pair (r² == 0, skipped in the pair-math phase), exclusions
// and modified 1-4 pairs — over power-of-two and odd cluster geometries.
// The same systems carry entries the dual list's inner view cuts partly,
// entries it drops, and a pair at exactly the prune distance, which it
// drops too (checkPrunedSweeps).

// newSweepTestSystem is the random test system's parameter set on that
// box, with the blob and the coincident pair. Blob pairs are only ever
// flagged modified, never excluded, so full entries keep all their mask
// bits; every other contact is at least 1.5 Å, which keeps the force
// scale — the yardstick of the tabulated kernel's bound — physical.
func newSweepTestSystem(t *testing.T, beta float64) *clusterTestSystem {
	t.Helper()
	s := newClusterTestSystem(t, 11, 0, beta)
	s.params.Cutoff, s.params.SwitchDist = 7, 6
	if err := s.params.Validate(); err != nil {
		t.Fatal(err)
	}
	s.skin = 1.0
	side := 2 * (s.params.Cutoff + s.skin)
	s.box = vec.New(side, side, side)
	rng := rand.New(rand.NewSource(23))
	add := func(p vec.V3) {
		s.pos = append(s.pos, p)
		s.types = append(s.types, int32(rng.Intn(3)))
		s.charges = append(s.charges, rng.Float64()*0.8-0.4)
	}
	// 3×3×4 blob at 1.5 Å spacing (diameter 6.2 Å < cutoff) inside one
	// x–y column for every geometry tested; a column z-sorts its atoms,
	// so the blob occupies 36 consecutive slots — enough to contain an
	// aligned i-cluster and a disjoint aligned j-cluster whatever the
	// alignment (2·(M+N) − 2 ≤ 30).
	const blobLo, blobStep = 0.4, 1.5
	for iz := 0; iz < 4; iz++ {
		for iy := 0; iy < 3; iy++ {
			for ix := 0; ix < 3; ix++ {
				add(vec.New(blobLo+blobStep*float64(ix), blobLo+blobStep*float64(iy), 3+blobStep*float64(iz)))
			}
		}
	}
	// The tie: a pair exactly the inner view's prune distance apart along
	// x (r² == PruneDist² in floating point), away from the blob.
	add(vec.New(0, 12, 12))
	add(vec.New(s.params.Cutoff+spatial.ClusterPruneSkin, 12, 12))
	nBlob := len(s.pos) - 2
	for k := 0; k < nBlob/3; k++ {
		i, j := int32(rng.Intn(nBlob)), int32(rng.Intn(nBlob))
		if i > j {
			i, j = j, i
		}
		if i != j {
			s.excl[[2]int32{i, j}] = true
		}
	}
	// Random atoms to water density, kept out of the blob's columns over
	// its z-range so nothing interleaves with it in slot order.
	for len(s.pos) < 400 {
		p := vec.New(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side)
		if p.X < 5.5 && p.Y < 5.5 && p.Z > 1.5 && p.Z < 9 {
			continue
		}
		tooClose := false
		for _, q := range s.pos {
			if vec.MinImage(p, q, s.box).Norm() < 1.5 {
				tooClose = true
				break
			}
		}
		if !tooClose {
			add(p)
		}
	}
	n := len(s.pos)
	for k := 0; k < n/3; k++ {
		i, j := int32(nBlob+rng.Intn(n-nBlob)), int32(nBlob+rng.Intn(n-nBlob))
		if i > j {
			i, j = j, i
		}
		if i != j {
			s.excl[[2]int32{i, j}] = rng.Intn(2) == 0
		}
	}
	// The coincident pair: a copy of the last atom, not excluded.
	add(s.pos[n-1])
	return s
}

// listCensus is what sweepCensus finds in a list: the candidates (mask
// bits) and how many of them are inside the cutoff, whether some entry
// has all M·N candidates inside (full), whether some entry's candidates
// are all outside (empty), whether a coincident pair is listed, and the
// closest non-coincident contact.
type listCensus struct {
	candidates, inside      int
	full, empty, coincident bool
	minR2                   float64
}

// sweepCensus recounts the list entry by entry with the kernels'
// displacement arithmetic.
func sweepCensus(l *spatial.ClusterList, d *ClusterData, rc2 float64) listCensus {
	wrap := func(dv, box float64) float64 {
		if dv > box/2 {
			dv -= box
		} else if dv < -box/2 {
			dv += box
		}
		return dv
	}
	c := listCensus{minR2: math.Inf(1)}
	for ic := 0; ic < l.NumI(); ic++ {
		for _, e := range l.Entries[l.EntryOff[ic]:l.EntryOff[ic+1]] {
			inside := 0
			for m := e.Mask; m != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				si, sj := ic*l.M+t/l.N, int(e.J)*l.N+t%l.N
				dx := wrap(d.X[si]-d.X[sj], l.Box.X)
				dy := wrap(d.Y[si]-d.Y[sj], l.Box.Y)
				dz := wrap(d.Z[si]-d.Z[sj], l.Box.Z)
				r2 := dx*dx + dy*dy + dz*dz
				if r2 < rc2 {
					inside++
				}
				if r2 == 0 {
					c.coincident = true
				} else if r2 < c.minR2 {
					c.minR2 = r2
				}
			}
			cand := bits.OnesCount64(e.Mask)
			c.candidates += cand
			c.inside += inside
			c.full = c.full || (cand == l.M*l.N && inside == cand)
			c.empty = c.empty || (cand > 0 && inside == 0)
		}
	}
	return c
}

var sweepGeometries = [][2]int{{1, 8}, {3, 5}, {4, 8}, {5, 3}, {8, 8}}

// TestDifferentialClusterSweepAnalytic: over every edge case above the
// production analytic kernel is bitwise NonbondedClusterRef — energies,
// virial and every slot force, padding slots included — and its inner
// and prune sweeps are bitwise its outer sweep.
func TestDifferentialClusterSweepAnalytic(t *testing.T) {
	for _, beta := range []float64{0, 0.35} {
		s := newSweepTestSystem(t, beta)
		for _, mn := range sweepGeometries {
			t.Run(fmt.Sprintf("beta=%g/%dx%d", beta, mn[0], mn[1]), func(t *testing.T) {
				l, d, fOpt, enOpt := s.evalSlots(t, mn[0], mn[1], (*Params).NonbondedCluster)
				if c := sweepCensus(l, d, s.params.Cutoff*s.params.Cutoff); !c.full || !c.empty || !c.coincident {
					t.Fatalf("test system lost an edge case: full entry %v, all-outside entry %v, coincident pair %v", c.full, c.empty, c.coincident)
				}
				_, _, fRef, enRef := s.evalSlots(t, mn[0], mn[1], (*Params).NonbondedClusterRef)
				if enOpt != enRef {
					t.Fatalf("energies/virial differ: %v vs reference %v", enOpt, enRef)
				}
				for k := range fOpt {
					for sl := range fOpt[k] {
						if fOpt[k][sl] != fRef[k][sl] {
							t.Fatalf("slot %d force component %d: %g vs reference %g", sl, k, fOpt[k][sl], fRef[k][sl])
						}
					}
				}
				s.checkPrunedSweeps(t, mn[0], mn[1], (*Params).nonbondedCluster)
			})
		}
	}
}

// TestDifferentialClusterSweepTabulated: the tabulated kernel runs the
// same sweep, so over the same edge cases its van der Waals energy is
// bitwise the analytic replay's, and its forces, electrostatic energy
// and virial track the replay within the table's a-priori h³/x³ bound at
// the closest contact (the per-pair coefficient FuzzInteractionTable
// pins), relative to the scale of the electrostatics — the one term the
// two kernels differ in — measured by the replay with every LJ well
// zeroed. Its inner and prune sweeps are bitwise its outer sweep.
func TestDifferentialClusterSweepTabulated(t *testing.T) {
	for _, beta := range []float64{0, 0.35} {
		s := newSweepTestSystem(t, beta)
		tab, err := s.params.BuildInteractionTable(0)
		if err != nil {
			t.Fatal(err)
		}
		tabKern := func(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (float64, float64, float64) {
			return p.NonbondedClusterTab(tab, l, d, ics, fx, fy, fz)
		}
		tabSweep := func(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, sweep ClusterSweep, fx, fy, fz []float64) (float64, float64, float64) {
			return p.nonbondedClusterTab(tab, l, d, ics, sweep, fx, fy, fz)
		}
		elecOnly := *s.params
		elecOnly.AtomTypes = append([]AtomType(nil), s.params.AtomTypes...)
		for i := range elecOnly.AtomTypes {
			elecOnly.AtomTypes[i].Epsilon, elecOnly.AtomTypes[i].Epsilon14 = 0, 0
		}
		if err := elecOnly.Validate(); err != nil {
			t.Fatal(err)
		}
		elecKern := func(_ *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (float64, float64, float64) {
			return elecOnly.NonbondedClusterRef(l, d, ics, fx, fy, fz)
		}
		for _, mn := range sweepGeometries {
			t.Run(fmt.Sprintf("beta=%g/%dx%d", beta, mn[0], mn[1]), func(t *testing.T) {
				l, d, fTab, enTab := s.evalSlots(t, mn[0], mn[1], tabKern)
				_, _, fRef, enRef := s.evalSlots(t, mn[0], mn[1], (*Params).NonbondedClusterRef)
				_, _, fElec, enElec := s.evalSlots(t, mn[0], mn[1], elecKern)
				if enTab[0] != enRef[0] {
					t.Errorf("vdW energy %v, analytic replay %v: want bitwise", enTab[0], enRef[0])
				}
				minR2 := sweepCensus(l, d, s.params.Cutoff*s.params.Cutoff).minR2
				h := tab.Spacing
				bound := math.Pow(h/minR2, 3) + math.Pow(beta*beta*h, 3)
				var worst, fScale float64
				for sl := range fRef[0] {
					var d2, f2 float64
					for k := range fRef {
						d2 += (fTab[k][sl] - fRef[k][sl]) * (fTab[k][sl] - fRef[k][sl])
						f2 += fElec[k][sl] * fElec[k][sl]
					}
					worst = math.Max(worst, math.Sqrt(d2))
					fScale = math.Max(fScale, math.Sqrt(f2))
				}
				if worst > bound*fScale {
					t.Errorf("tabulated force error %.3g of the electrostatic force scale exceeds the h³ bound %.3g", worst/fScale, bound)
				}
				if dE := math.Abs(enTab[1] - enRef[1]); dE > bound*math.Abs(enElec[1]) {
					t.Errorf("tabulated electrostatic energy error %.3g exceeds the h³ bound %.3g", dE/math.Abs(enElec[1]), bound)
				}
				if dV := math.Abs(enTab[2] - enRef[2]); dV > bound*math.Abs(enElec[2]) {
					t.Errorf("tabulated virial error %.3g of the electrostatic virial exceeds the h³ bound %.3g", dV/math.Abs(enElec[2]), bound)
				}
				s.checkPrunedSweeps(t, mn[0], mn[1], tabSweep)
			})
		}
	}
}
