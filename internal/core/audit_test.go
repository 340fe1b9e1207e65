package core

import (
	"math"
	"testing"
)

// TestMeasuredAuditPinned holds MeasuredAudit's columns on
// TestMeasuredAudit's simulation to the values of the original
// record-summing implementation, within 1e-12 relative: the audit's
// definition may move, its numbers may not.
func TestMeasuredAuditPinned(t *testing.T) {
	res := runSim(t, Config{PEs: 8, GrainSplit: true, SplitBonded: true, MulticastOpt: true, CollectTrace: true})
	a, err := res.MeasuredAudit()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"total", a.Total, 7.5776251284065905},
		{"nonbonded", a.Nonbonded, 6.5294879625552689},
		{"bonded", a.Bonded, 0.39499999999999957},
		{"integration", a.Integration, 0.18204326041666677},
		{"overhead", a.Overhead, 0.011788276249985524},
		{"imbalance", a.Imbalance, 0.4541762708655443},
		{"idle", a.Idle, 0},
		{"receives", a.Receives, 0.01179237499997844},
	} {
		if math.Abs(c.got-c.want) > 1e-12*math.Abs(c.want) {
			t.Errorf("%s = %.17g, want %.17g (relative difference %.3g)",
				c.name, c.got, c.want, math.Abs(c.got-c.want)/math.Abs(c.want))
		}
	}
}
