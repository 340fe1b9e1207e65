package core

import (
	"reflect"
	"testing"

	"gonamd/internal/ldb"
)

// TestHierarchicalStrategyRuns: the scalable strategy drives a full
// simulation and, like every incremental strategy, never worsens max
// load across its passes.
func TestHierarchicalStrategyRuns(t *testing.T) {
	res := runSim(t, Config{PEs: 16, GrainSplit: true, SplitBonded: true, MulticastOpt: true,
		LB: &ldb.Hierarchical{GroupSize: 4}})
	if len(res.LBStats) != 2 {
		t.Fatalf("LBStats has %d entries, want 2", len(res.LBStats))
	}
	if res.LBStats[1].MaxLoad > res.LBStats[0].MaxLoad*1.02 {
		t.Errorf("second pass worsened max load: %v -> %v",
			res.LBStats[0].MaxLoad, res.LBStats[1].MaxLoad)
	}
}

// TestTreeMulticastConservesPhysicsAndHelpsAtScale: tree routing changes
// when messages arrive, never whether they arrive — the step protocol
// must complete with identical step counts — and at a PE count with wide
// proxy fan-outs the modeled step time must not regress.
func TestTreeMulticastAtScale(t *testing.T) {
	flat := runSim(t, Config{PEs: 27, GrainSplit: true, SplitBonded: true, MulticastOpt: true})
	tree := runSim(t, Config{PEs: 27, GrainSplit: true, SplitBonded: true, MulticastOpt: true,
		TreeMulticast: true})
	if len(flat.StepDurations) != len(tree.StepDurations) {
		t.Fatalf("step counts differ: %d vs %d", len(flat.StepDurations), len(tree.StepDurations))
	}
	// The small shared workload caps fan-outs well below where trees win
	// big; the guard here is that tree routing is not pathological at
	// small scale (within 10%) — the scaling tables in internal/bench
	// cover the large-PE payoff.
	if tree.AvgStep > flat.AvgStep*1.10 {
		t.Errorf("tree multicast regressed small-scale step time: flat %v, tree %v",
			flat.AvgStep, tree.AvgStep)
	}
}

// TestTreeMulticastDeterministic: identical tree-routed runs are
// bit-identical.
func TestTreeMulticastDeterministic(t *testing.T) {
	cfg := Config{PEs: 16, GrainSplit: true, SplitBonded: true, MulticastOpt: true,
		TreeMulticast: true, LB: &ldb.Hierarchical{GroupSize: 4}}
	a := runSim(t, cfg)
	b := runSim(t, cfg)
	if !reflect.DeepEqual(a.StepDurations, b.StepDurations) || a.TotalMsgs != b.TotalMsgs {
		t.Error("tree-routed runs are not deterministic")
	}
}
