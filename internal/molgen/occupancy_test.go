package molgen

import (
	"math"
	"testing"

	"gonamd/internal/vec"
	"gonamd/internal/xrand"
)

// TestOccupancyMatchesBruteForce checks the dense grid against a scan of
// every stored atom: nearest must equal the root of the smallest of cap²
// and every squared minimum-image distance, to the bit, and crowded must
// agree with the same scan. Stored atoms come in unwrapped, as place
// hands them over; queries lie inside the box, outside it (addWater asks
// about hydrogens up to an O–H length past an edge), on cell edges and
// on the box faces. The small boxes have fewer cells on an axis than
// nearest's 2·reach+1, so its scan wraps onto cells it already visited
// and gets no slab bound there.
func TestOccupancyMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		box   vec.V3
		atoms int
	}{
		{vec.New(30, 25, 20.5), 900},
		{vec.New(108.86, 12, 7.76), 600},
		{vec.New(7, 9.5, 5), 60},
		{vec.New(2.3, 2.3, 2.3), 4},
	} {
		o := newOccupancy(tc.box, 2.4)
		rng := xrand.New(uint64(tc.atoms))
		var stored []vec.V3
		for i := 0; i < tc.atoms; i++ {
			p := vec.New(rng.Range(-3, tc.box.X+3), rng.Range(-3, tc.box.Y+3), rng.Range(-3, tc.box.Z+3))
			if i%7 == 6 {
				// Next to an earlier atom, so that distances run from ulps up.
				jitter := vec.New(rng.Range(-1, 1), rng.Range(-1, 1), rng.Range(-1, 1))
				p = stored[rng.Intn(len(stored))].Add(jitter.Scale(math.Pow(10, -rng.Range(0, 12))))
			}
			o.add(p)
			stored = append(stored, vec.Wrap(p, tc.box))
		}
		var queries []vec.V3
		for i := 0; i < 1500; i++ {
			queries = append(queries, vec.New(rng.Range(-2*tc.box.X, 3*tc.box.X), rng.Range(-1.5, tc.box.Y+1.5), rng.Range(-1.5, tc.box.Z+1.5)))
		}
		for _, p := range stored[:min(len(stored), 200)] {
			queries = append(queries, p, p.Add(vec.New(0.9572, 0, 0)), p.Add(vec.New(-1e-12, 2e-13, 0)))
		}
		for ix := 0; ix <= o.dim[0]; ix++ {
			for iy := 0; iy <= o.dim[1]; iy++ {
				x, y := float64(ix)*o.side.X, float64(iy)*o.side.Y
				queries = append(queries, vec.New(x, y, 0), vec.New(x, y, tc.box.Z), vec.New(math.Nextafter(x, -1), y, o.side.Z))
			}
		}
		for _, p := range queries {
			for _, cap := range []float64{0.5, 2.4, 3.0, 4.0, 6.5} {
				best2 := cap * cap
				for _, q := range stored {
					best2 = min(best2, vec.MinImage(p, q, tc.box).Norm2())
				}
				if got, want := o.nearest(p, cap), math.Sqrt(best2); got != want {
					t.Fatalf("box %v: nearest(%v, %g) = %v, brute force %v", tc.box, p, cap, got, want)
				}
			}
			for _, dist := range []float64{0.3, 1.2, 2.2, 2.4} {
				want := false
				for _, q := range stored {
					want = want || vec.MinImage(p, q, tc.box).Norm2() < dist*dist
				}
				if got := o.crowded(p, dist); got != want {
					t.Fatalf("box %v: crowded(%v, %g) = %v, brute force %v", tc.box, p, dist, got, want)
				}
			}
		}
	}
}

// TestOccupancyNearestAcrossFaces puts the nearest atom just across a
// face or a corner of the query's cell, and a second atom 1e-10 further
// off in the query's own cell, found first: a slab bound any larger than
// the true gap, or a skip margin below 1, skips the nearer atom's cell
// and returns the second distance. A lone atom just inside the cap two
// cells away must be found the same way.
func TestOccupancyNearestAcrossFaces(t *testing.T) {
	box := vec.New(30, 25, 20.5)
	dirs := []vec.V3{vec.New(1, 0, 0), vec.New(0, 1, 0), vec.New(0, 0, 1), vec.New(1, 1, 1), vec.New(1, -1, 1)}
	for _, dir := range dirs {
		for _, sign := range []float64{1, -1} {
			for _, cell := range [][3]int{{0, 0, 0}, {3, 4, 2}, {11, 9, 7}} {
				o := newOccupancy(box, 2.4)
				// The query sits 0.3 of a cell edge from the faces it looks
				// across, the nearer atom 1e-7 Å past them.
				var p, a vec.V3
				for c := 0; c < 3; c++ {
					h, dc := o.side.Comp(c), sign*dir.Comp(c)
					lo := float64(cell[c]) * h
					switch {
					case dc > 0:
						p, a = p.SetComp(c, lo+0.7*h), a.SetComp(c, lo+h+1e-7)
					case dc < 0:
						p, a = p.SetComp(c, lo+0.3*h), a.SetComp(c, lo-1e-7)
					default:
						p, a = p.SetComp(c, lo+0.5*h), a.SetComp(c, lo+0.5*h)
					}
				}
				b := p.Sub(a.Sub(p).Scale(1 + 1e-10))
				o.add(a)
				o.add(b)
				a, b = vec.Wrap(a, box), vec.Wrap(b, box) // as stored
				want := math.Sqrt(min(vec.MinImage(p, a, box).Norm2(), vec.MinImage(p, b, box).Norm2()))
				if got := o.nearest(p, 3.0); got != want {
					t.Errorf("dir %v sign %g cell %v: nearest = %v, want %v", dir, sign, cell, got, want)
				}
			}
		}
	}
	for c := 0; c < 3; c++ {
		o := newOccupancy(box, 2.4)
		h := o.side.Comp(c)
		face := 4 * h // the query is in cell 2; this is cell 4's lower face
		p, a := vec.New(1.2, 1.2, 1.2).SetComp(c, face-(3.0-1e-4)), vec.New(1.2, 1.2, 1.2).SetComp(c, face+1e-7)
		o.add(a)
		if got, want := o.nearest(p, 3.0), vec.MinImage(p, a, box).Norm(); got != want {
			t.Errorf("axis %d: nearest = %v, want %v", c, got, want)
		}
	}
}
