package forcefield

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gonamd/internal/spatial"
	"gonamd/internal/vec"
)

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// clusterTestSystem is a random small system with exclusions for
// kernel-level differential checks.
type clusterTestSystem struct {
	params  *Params
	box     vec.V3
	pos     []vec.V3
	types   []int32
	charges []float64
	excl    map[[2]int32]bool // pair → modified?
	skin    float64           // lists are built at Cutoff + skin
}

func newClusterTestSystem(t *testing.T, seed int64, n int, beta float64) *clusterTestSystem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := &clusterTestSystem{
		box: vec.New(14, 16, 13),
		params: &Params{
			AtomTypes: []AtomType{
				{Name: "A", Epsilon: 0.15, Sigma: 3.2},
				{Name: "B", Epsilon: 0.05, Sigma: 2.1, Epsilon14: 0.02, Sigma14: 1.9},
				{Name: "C", Epsilon: 0.21, Sigma: 3.5},
			},
			Cutoff:      5.0,
			SwitchDist:  4.0,
			Scale14Elec: 0.8333,
			Scale14VdW:  0.5,
			EwaldBeta:   beta,
		},
		excl: make(map[[2]int32]bool),
	}
	if err := s.params.Validate(); err != nil {
		t.Fatal(err)
	}
	s.pos = make([]vec.V3, n)
	s.types = make([]int32, n)
	s.charges = make([]float64, n)
	for i := 0; i < n; i++ {
		s.pos[i] = vec.New(rng.Float64()*s.box.X, rng.Float64()*s.box.Y, rng.Float64()*s.box.Z)
		s.types[i] = int32(rng.Intn(3))
		s.charges[i] = rng.Float64()*0.8 - 0.4
	}
	for k := 0; k < n/3; k++ {
		i, j := int32(rng.Intn(n)), int32(rng.Intn(n))
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		s.excl[[2]int32{i, j}] = rng.Intn(2) == 0
	}
	return s
}

func (s *clusterTestSystem) forEachExcl(fn func(i, j int32, modified bool)) {
	n := int32(len(s.pos))
	for i := int32(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			if mod, ok := s.excl[[2]int32{i, j}]; ok {
				fn(i, j, mod)
			}
		}
	}
}

// clusterKern is the signature the cluster kernels share.
type clusterKern func(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (float64, float64, float64)

// evalSlots builds an M×N list at Cutoff + skin and runs the given
// kernel over every i-cluster, returning the list, its operands, the raw
// slot forces (x, y, z) and (evdw, eelec, virial).
func (s *clusterTestSystem) evalSlots(t *testing.T, m, n int, kern clusterKern) (l *spatial.ClusterList, d *ClusterData, f [3][]float64, en [3]float64) {
	t.Helper()
	b, err := spatial.NewClusterBuilder(s.box, m, n, s.params.Cutoff+s.skin)
	if err != nil {
		t.Fatal(err)
	}
	l = b.Build(s.pos, s.forEachExcl)
	d = &ClusterData{}
	d.LoadStatic(l, s.types, s.charges)
	d.LoadPositions(l, s.pos)
	ns := l.Slots()
	// Capacity ns+8: the kernels take constant-length-8 re-slices of a
	// cluster's slot run (see NonbondedCluster).
	for k := range f {
		f[k] = make([]float64, ns, ns+8)
	}
	ics := make([]int32, l.NumI())
	for i := range ics {
		ics[i] = int32(i)
	}
	en[0], en[1], en[2] = kern(s.params, l, d, ics, f[0], f[1], f[2])
	return l, d, f, en
}

// evalCluster is evalSlots reduced to per-atom forces plus energies.
func (s *clusterTestSystem) evalCluster(t *testing.T, m, n int, kern clusterKern) ([]vec.V3, float64, float64, float64) {
	t.Helper()
	l, _, f, en := s.evalSlots(t, m, n, kern)
	forces := make([]vec.V3, len(s.pos))
	for sl, a := range l.Atom {
		if a >= 0 {
			forces[a] = vec.New(f[0][sl], f[1][sl], f[2][sl])
		}
	}
	return forces, en[0], en[1], en[2]
}

// bruteForces is the O(N²) scalar-kernel reference over the same
// wrapped-position minimum image.
func (s *clusterTestSystem) bruteForces() ([]vec.V3, float64, float64) {
	n := len(s.pos)
	forces := make([]vec.V3, n)
	var evdw, eelec float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			key := [2]int32{int32(i), int32(j)}
			mod, excluded := s.excl[key]
			if excluded && !mod {
				continue
			}
			d := vec.MinImage(vec.Wrap(s.pos[i], s.box), vec.Wrap(s.pos[j], s.box), s.box)
			ev, ee, f := s.params.Nonbonded(s.types[i], s.types[j],
				s.charges[i], s.charges[j], d.Norm2(), mod)
			evdw += ev
			eelec += ee
			forces[i] = forces[i].Add(d.Scale(f))
			forces[j] = forces[j].Sub(d.Scale(f))
		}
	}
	return forces, evdw, eelec
}

// TestDifferentialClusterKernelVsReference: the optimized cluster kernel must
// be bitwise identical to the scalar-kernel replay over the
// same list, for several cluster geometries and both electrostatic
// modes.
func TestDifferentialClusterKernelVsReference(t *testing.T) {
	for _, beta := range []float64{0, 0.35} {
		for _, mn := range [][2]int{{4, 4}, {4, 8}, {8, 4}, {2, 3}, {1, 1}} {
			s := newClusterTestSystem(t, 42, 180, beta)
			fOpt, ev1, ee1, vir1 := s.evalCluster(t, mn[0], mn[1], (*Params).NonbondedCluster)
			fRef, ev2, ee2, vir2 := s.evalCluster(t, mn[0], mn[1], (*Params).NonbondedClusterRef)
			if !reflect.DeepEqual(fOpt, fRef) {
				t.Fatalf("beta=%g %dx%d: optimized forces differ from scalar replay", beta, mn[0], mn[1])
			}
			if ev1 != ev2 || ee1 != ee2 || vir1 != vir2 {
				t.Fatalf("beta=%g %dx%d: energies differ: (%g,%g,%g) vs (%g,%g,%g)",
					beta, mn[0], mn[1], ev1, ee1, vir1, ev2, ee2, vir2)
			}
		}
	}
}

// TestClusterTabVdWBitwiseAnalytic: the two production kernels share
// the van der Waals arithmetic, so on the same list and positions the
// tabulated kernel's vdW energy is bitwise the analytic kernel's, under
// either electrostatics and on every geometry — they differ only in the
// electrostatic term.
func TestClusterTabVdWBitwiseAnalytic(t *testing.T) {
	for _, beta := range []float64{0, 0.35} {
		s := newClusterTestSystem(t, 42, 180, beta)
		tab, err := s.params.BuildInteractionTable(0)
		if err != nil {
			t.Fatal(err)
		}
		tabKern := func(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (float64, float64, float64) {
			return p.NonbondedClusterTab(tab, l, d, ics, fx, fy, fz)
		}
		for _, mn := range [][2]int{{4, 4}, {4, 8}, {8, 8}, {2, 3}, {1, 1}} {
			_, evTab, _, _ := s.evalCluster(t, mn[0], mn[1], tabKern)
			_, evAna, _, _ := s.evalCluster(t, mn[0], mn[1], (*Params).NonbondedCluster)
			if evTab != evAna {
				t.Errorf("beta=%g %dx%d: tabulated vdW energy %v, analytic %v", beta, mn[0], mn[1], evTab, evAna)
			}
		}
	}
}

// TestDifferentialClusterKernelVsBruteForce: summed per-atom forces and
// energies agree with the O(N²) scalar reference within accumulation-
// order tolerance.
func TestDifferentialClusterKernelVsBruteForce(t *testing.T) {
	for _, beta := range []float64{0, 0.35} {
		s := newClusterTestSystem(t, 7, 200, beta)
		fCl, ev, ee, _ := s.evalCluster(t, 4, 4, (*Params).NonbondedCluster)
		fRef, evRef, eeRef := s.bruteForces()
		if relDiff(ev, evRef) > 1e-12 || relDiff(ee, eeRef) > 1e-12 {
			t.Fatalf("beta=%g: energies (%g,%g) vs brute (%g,%g)", beta, ev, ee, evRef, eeRef)
		}
		for i := range fCl {
			if d := fCl[i].Sub(fRef[i]).Norm(); d > 1e-9*(1+fRef[i].Norm()) {
				t.Fatalf("beta=%g atom %d: force %v vs brute %v", beta, i, fCl[i], fRef[i])
			}
		}
	}
}

// TestClusterKernelDispatch: the kernel selection follows the parameter
// set's electrostatics — analytic for the shifted cutoff, tabulated for
// Ewald — and UseReference switches either to the scalar replay.
func TestClusterKernelDispatch(t *testing.T) {
	for _, beta := range []float64{0, 0.35} {
		s := newClusterTestSystem(t, 5, 160, beta)
		k, err := s.params.ClusterKernel()
		if err != nil {
			t.Fatal(err)
		}
		if k.Tabulated() != (beta > 0) {
			t.Fatalf("beta=%g: Tabulated() = %v", beta, k.Tabulated())
		}
		want := (*Params).NonbondedCluster
		if beta > 0 {
			want = func(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (float64, float64, float64) {
				return p.NonbondedClusterTab(k.tab, l, d, ics, fx, fy, fz)
			}
		}
		eval := func(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (float64, float64, float64) {
			return k.Eval(p, l, d, ics, SweepOuter, fx, fy, fz)
		}
		fGot, ev1, ee1, _ := s.evalCluster(t, 4, 8, eval)
		fWant, ev2, ee2, _ := s.evalCluster(t, 4, 8, want)
		if !reflect.DeepEqual(fGot, fWant) || ev1 != ev2 || ee1 != ee2 {
			t.Errorf("beta=%g: Eval is not the selected production kernel", beta)
		}
		k.UseReference(true)
		fGot, ev1, ee1, _ = s.evalCluster(t, 4, 8, eval)
		fWant, ev2, ee2, _ = s.evalCluster(t, 4, 8, (*Params).NonbondedClusterRef)
		if !reflect.DeepEqual(fGot, fWant) || ev1 != ev2 || ee1 != ee2 {
			t.Errorf("beta=%g: UseReference did not select the scalar replay", beta)
		}
	}
}
