package engine

import (
	"fmt"
	"testing"

	"gonamd/internal/seq"
	"gonamd/internal/vec"
)

// TestClusterKernelFollowsElectrostatics: nobody chooses the kernel — the
// engine evaluates the tabulated kernel exactly when full electrostatics
// are on.
func TestClusterKernelFollowsElectrostatics(t *testing.T) {
	sys, st, ff := smallSystem(t)
	for _, workers := range []int{1, 2} {
		eng := clusterEngine(t, sys, ff, st.Clone(), workers)
		if eng.clb.kernel.Tabulated() {
			t.Errorf("%d workers: shifted-cutoff engine selected the tabulated kernel", workers)
		}
		cfg := clusterConfig(workers)
		cfg.PME = &PMEConfig{GridSpacing: 1.0, Beta: 0.3, MTSPeriod: 1}
		eng = buildEngine(t, sys, ff, st.Clone(), cfg)
		if !eng.clb.kernel.Tabulated() {
			t.Errorf("%d workers: engine with PME did not select the tabulated kernel", workers)
		}
		eng.ComputeForces() // the table must match the Ewald force field (checkParams panics otherwise)
	}
}

// TestClusterListRebuildOnMotion: the list is reused until an atom moves
// past skin/2, and ResetLists forces a rebuild whatever the positions.
// External position edits go through Invalidate, which also voids the
// drift bound so the displacement scan actually runs.
func TestClusterListRebuildOnMotion(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			sys, st, ff := smallSystem(t)
			eng := clusterEngine(t, sys, ff, st, workers)
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
		})
	}
}

func TestNewRejectsBadClusterGeometry(t *testing.T) {
	sys, st, ff := smallSystem(t)
	for _, mn := range [][2]int{{9, 9}, {4, 0}, {-1, 4}} {
		if _, err := New(sys, ff, st, Config{Workers: 2, ClusterM: mn[0], ClusterN: mn[1]}); err == nil {
			t.Errorf("cluster geometry %dx%d accepted", mn[0], mn[1])
		}
	}
}
