package core

import (
	"testing"

	"gonamd/internal/ldb"
	"gonamd/internal/trace"
)

func TestPMEPencilsCreatedAndScheduled(t *testing.T) {
	w, model := testWorkload(t)
	sim, err := NewSim(w, Config{
		PEs: 8, Model: model, CollectTrace: true,
		PMEGrid: 32, PMEMTSPeriod: 4, PMEPencils: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.PMEComputes != 8 {
		t.Errorf("PMEComputes = %d, want 8 (2×2 z-pencils + 2×2 x-pencils)", res.PMEComputes)
	}
	// The balancer must have moved pencils off PE 0, where they all
	// start.
	if res.PMEMigrations == 0 {
		t.Error("load balancer performed no pencil migrations")
	}
	// The mesh work must show up in the trace under its own category.
	totals := res.Trace.CategoryTotals(-1)
	if totals[trace.CatPME] <= 0 {
		t.Error("trace records no CatPME time")
	}
	// MTS: pencil executions happen only on reciprocal steps. Count
	// forward-phase executions of the charge entry: one per z-pencil per
	// reciprocal step (plus re-execution after LB pauses is still on
	// reciprocal steps).
	for _, r := range res.Trace.Records {
		if r.Entry == "pme.charges" || r.Entry == "pme.transpose" || r.Entry == "pme.untranspose" {
			if len(r.Spans) == 0 || r.Spans[len(r.Spans)-1].Cat != trace.CatPME {
				t.Fatalf("pencil execution %q not attributed to CatPME", r.Entry)
			}
		}
	}
}

// TestPMEMTSReducesPencilTraffic: lengthening the reciprocal period must
// strictly reduce total message count (the pencil all-to-all disappears
// from off-cycle steps) while the protocol still completes.
func TestPMEMTSReducesPencilTraffic(t *testing.T) {
	w, model := testWorkload(t)
	run := func(mts int) *Result {
		sim, err := NewSim(w, Config{
			PEs: 4, Model: model, LB: ldb.NoOp{},
			PMEGrid: 32, PMEMTSPeriod: mts, PMEPencils: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	every := run(1)
	sparse := run(4)
	if sparse.TotalMsgs >= every.TotalMsgs {
		t.Errorf("MTS period 4 sends %d messages, period 1 sends %d — expected fewer",
			sparse.TotalMsgs, every.TotalMsgs)
	}
	if sparse.AvgStep >= every.AvgStep {
		t.Errorf("MTS period 4 average step %.6f not faster than period 1's %.6f",
			sparse.AvgStep, every.AvgStep)
	}
}

// TestPMEDeterministicWithLB: two identical PME runs through the full
// load-balancing protocol give identical measured results.
func TestPMEDeterministicWithLB(t *testing.T) {
	w, model := testWorkload(t)
	run := func() *Result {
		sim, err := NewSim(w, Config{
			PEs: 8, Model: model,
			PMEGrid: 32, PMEMTSPeriod: 2, PMEPencils: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	a, b := run(), run()
	if a.AvgStep != b.AvgStep {
		t.Errorf("PME cluster runs differ: %.9f vs %.9f", a.AvgStep, b.AvgStep)
	}
	if a.PMEMigrations != b.PMEMigrations {
		t.Errorf("pencil migrations differ: %d vs %d", a.PMEMigrations, b.PMEMigrations)
	}
}

// TestPMEConfigValidation rejects nonsensical mesh/pencil settings.
func TestPMEConfigValidation(t *testing.T) {
	w, model := testWorkload(t)
	if _, err := NewSim(w, Config{PEs: 2, Model: model, PMEGrid: 2}); err == nil {
		t.Error("PMEGrid 2 accepted")
	}
	if _, err := NewSim(w, Config{PEs: 2, Model: model, PMEGrid: 32, PMEPencils: 64}); err == nil {
		t.Error("64×64 pencils on a 32³ mesh accepted")
	}
}
