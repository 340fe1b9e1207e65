package par

import (
	"testing"

	"gonamd/internal/seq"
	"gonamd/internal/vec"
)

// TestClusterKernelFollowsElectrostatics: nobody chooses the kernel — the
// engine evaluates the tabulated kernel exactly when full electrostatics
// are on.
func TestClusterKernelFollowsElectrostatics(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eng.clb.kernel.Tabulated() {
		t.Error("shifted-cutoff engine selected the tabulated kernel")
	}
	if err := EnableFullElectrostatics(eng, 1.0, 0.3, 1); err != nil {
		t.Fatal(err)
	}
	if !eng.clb.kernel.Tabulated() {
		t.Error("engine with PME did not select the tabulated kernel")
	}
	eng.ComputeForces() // the table must match the swapped force field (checkParams panics otherwise)
}

// TestClusterListRebuildOnMotion: the list is reused until an atom moves
// past skin/2, and ResetLists forces a rebuild whatever the positions.
func TestClusterListRebuildOnMotion(t *testing.T) {
	sys, st, ff := smallSystem(t)
	eng, err := New(sys, ff, st, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	check := func(what string, rebuild bool) {
		t.Helper()
		eng.Invalidate()
		eng.ComputeForces()
		if rebuild {
			want++
		}
		if got := eng.ClusterRebuilds(); got != want {
			t.Fatalf("%s: %d builds, want %d", what, got, want)
		}
	}
	check("first evaluation", true)
	check("no motion", false)
	st.Pos[0] = vec.Wrap(st.Pos[0].Add(vec.New(seq.DefaultClusterSkin/2+0.05, 0, 0)), sys.Box)
	check("one atom past skin/2", true)
	eng.ResetLists()
	check("after ResetLists", true)
}

func TestNewRejectsBadClusterGeometry(t *testing.T) {
	sys, st, ff := smallSystem(t)
	for _, mn := range [][2]int{{9, 9}, {4, 0}, {-1, 4}} {
		if _, err := New(sys, ff, st, 2, mn[0], mn[1]); err == nil {
			t.Errorf("cluster geometry %dx%d accepted", mn[0], mn[1])
		}
	}
}
