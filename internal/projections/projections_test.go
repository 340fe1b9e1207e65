package projections

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"gonamd/internal/trace"
)

// testLog builds a small deterministic two-PE trace exercising every
// aggregation path: multi-span records, unattributed residual time,
// protocol overhead, step markers, and non-compute records.
func testLog() *trace.Log {
	l := trace.NewLog()
	add := func(pe, obj int32, entry string, start, end float64, spans ...trace.Span) {
		l.Add(trace.ExecRecord{PE: pe, Obj: obj, Entry: entry, Start: start, End: end, Spans: spans})
	}
	// Step 1.
	add(0, 0, "nonbonded", 0.00, 0.40, trace.Span{Cat: trace.CatNonbonded, Dur: 0.40})
	add(0, 1, "bonded", 0.40, 0.50, trace.Span{Cat: trace.CatBonded, Dur: 0.10})
	// 0.02s of this record is unattributed residual -> CatOther.
	add(0, -1, "reduce", 0.50, 0.60, trace.Span{Cat: trace.CatComm, Dur: 0.08})
	add(1, 2, "nonbonded", 0.00, 0.30, trace.Span{Cat: trace.CatNonbonded, Dur: 0.30})
	add(1, 3, "pme_recip", 0.30, 0.55, trace.Span{Cat: trace.CatPME, Dur: 0.25})
	add(1, 4, "integrate", 0.55, 0.65, trace.Span{Cat: trace.CatIntegration, Dur: 0.10})
	add(0, 1, "step", 0.65, 0.65)
	// Step 2 (slower).
	add(0, 0, "nonbonded", 0.65, 1.15, trace.Span{Cat: trace.CatNonbonded, Dur: 0.50})
	add(1, 2, "nonbonded", 0.65, 1.00, trace.Span{Cat: trace.CatNonbonded, Dur: 0.35})
	add(0, 2, "step", 1.25, 1.25)
	return l
}

// TestExactBusySum is the core invariant: the report's per-category
// totals sum to BusySeconds exactly (bitwise, not within tolerance),
// and BusySeconds matches the independently summed record busy time to
// float rounding.
func TestExactBusySum(t *testing.T) {
	l := testLog()
	rep := Analyze(l, Options{})

	sum := 0.0
	for _, c := range rep.Categories {
		sum += c.Seconds
	}
	if sum != rep.BusySeconds {
		t.Errorf("category totals sum %.17g != BusySeconds %.17g", sum, rep.BusySeconds)
	}

	// Independent accounting: per record, spans + positive residual.
	want := 0.0
	for _, r := range l.Records {
		spanSum := 0.0
		for _, sp := range r.Spans {
			spanSum += sp.Dur
		}
		want += spanSum
		if resid := r.Dur() - spanSum; resid > 0 {
			want += resid
		}
	}
	if diff := math.Abs(want - rep.BusySeconds); diff > 1e-12 {
		t.Errorf("BusySeconds %.17g differs from record busy sum %.17g by %g", rep.BusySeconds, want, diff)
	}

	// Per-PE busy must also reconstruct the same total.
	peSum := 0.0
	for _, p := range rep.PerPE {
		peSum += p.BusySeconds
	}
	if diff := math.Abs(peSum - rep.BusySeconds); diff > 1e-12 {
		t.Errorf("per-PE busy sum %.17g differs from BusySeconds %.17g", peSum, rep.BusySeconds)
	}
}

func TestResidualChargedToOther(t *testing.T) {
	rep := Analyze(testLog(), Options{})
	var other float64
	for _, c := range rep.Categories {
		if c.Category == trace.CatOther.String() {
			other = c.Seconds
		}
	}
	if math.Abs(other-0.02) > 1e-12 {
		t.Errorf("CatOther total %.17g, want 0.02 (the reduce record's residual)", other)
	}
}

func TestStreamingMatchesInMemory(t *testing.T) {
	l := testLog()
	want := Analyze(l, Options{StepSeries: true})

	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeReader(&buf, Options{StepSeries: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("streamed report differs from in-memory report:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestStepSeries(t *testing.T) {
	rep := Analyze(testLog(), Options{StepSeries: true})
	if rep.Steps == nil {
		t.Fatal("no step stats despite step markers")
	}
	if rep.Steps.N != 2 {
		t.Fatalf("step count %d, want 2", rep.Steps.N)
	}
	// Markers at 0.65 and 1.25, t0 = 0: durations 0.65 and 0.60.
	want := []float64{0.65, 0.60}
	for i, d := range rep.Steps.Series {
		if math.Abs(d-want[i]) > 1e-12 {
			t.Errorf("step %d duration %.17g, want %g", i, d, want[i])
		}
	}
	if rep.Steps.Max != 0.65 || math.Abs(rep.Steps.Mean-0.625) > 1e-12 {
		t.Errorf("step stats max %.17g mean %.17g, want 0.65 / 0.625", rep.Steps.Max, rep.Steps.Mean)
	}
}

func TestGrainsizeFilter(t *testing.T) {
	rep := Analyze(testLog(), Options{})
	if rep.Grainsize == nil {
		t.Fatal("no grainsize report")
	}
	// Compute-object executions: 4 nonbonded + 1 bonded + 1 pme; the
	// reduce record (Obj -1, comm-dominant), integrate (integration
	// category), and the zero-duration markers are excluded.
	if rep.Grainsize.N != 6 {
		t.Errorf("grainsize n=%d, want 6", rep.Grainsize.N)
	}
	if math.Abs(rep.Grainsize.Max-0.50) > 1e-12 || math.Abs(rep.Grainsize.Min-0.10) > 1e-12 {
		t.Errorf("grainsize min/max %.17g/%.17g, want 0.10/0.50", rep.Grainsize.Min, rep.Grainsize.Max)
	}
	count := 0
	for _, c := range rep.Grainsize.Counts {
		count += c
	}
	if count != rep.Grainsize.N {
		t.Errorf("histogram counts sum %d != n %d", count, rep.Grainsize.N)
	}
}

func TestPEInference(t *testing.T) {
	rep := Analyze(testLog(), Options{})
	if rep.PEs != 2 {
		t.Errorf("inferred PEs %d, want 2", rep.PEs)
	}
	rep = Analyze(testLog(), Options{PEs: 8})
	if rep.PEs != 8 {
		t.Errorf("PEs override gave %d, want 8", rep.PEs)
	}
	// Idle grows with the override; busy is unchanged.
	base := Analyze(testLog(), Options{})
	if rep.BusySeconds != base.BusySeconds {
		t.Errorf("PEs override changed busy: %.17g vs %.17g", rep.BusySeconds, base.BusySeconds)
	}
	if rep.IdleSeconds <= base.IdleSeconds {
		t.Errorf("idle with 8 PEs (%g) not greater than with 2 (%g)", rep.IdleSeconds, base.IdleSeconds)
	}
}

func TestUtilizationIdentity(t *testing.T) {
	rep := Analyze(testLog(), Options{})
	budget := float64(rep.PEs) * rep.Span
	if diff := math.Abs(rep.BusySeconds + rep.IdleSeconds - budget); diff > 1e-12 {
		t.Errorf("busy+idle %.17g != PE-seconds budget %.17g", rep.BusySeconds+rep.IdleSeconds, budget)
	}
	if diff := math.Abs(rep.Utilization - rep.BusySeconds/budget); diff > 1e-15 {
		t.Errorf("utilization %.17g inconsistent with busy/budget", rep.Utilization)
	}
}

func TestAnalyzerIncremental(t *testing.T) {
	// Feeding records one at a time matches AddLog.
	l := testLog()
	a := NewAnalyzer()
	for _, r := range l.Records {
		a.Add(r)
	}
	b := NewAnalyzer()
	b.AddLog(l)
	if !reflect.DeepEqual(a.Report(Options{}), b.Report(Options{})) {
		t.Error("incremental Add disagrees with AddLog")
	}
}

func TestEmptyLog(t *testing.T) {
	rep := Analyze(trace.NewLog(), Options{})
	if rep.Records != 0 || rep.BusySeconds != 0 || rep.Grainsize != nil || rep.Steps != nil {
		t.Errorf("empty log produced non-empty report: %+v", rep)
	}
	if rep.String() == "" {
		t.Error("empty report renders nothing")
	}
}
