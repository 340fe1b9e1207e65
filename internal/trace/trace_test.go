// The tests of this package are an external package: every aggregate
// over trace records is computed by internal/projections, so the tests
// below that check aggregates (summary profile, category totals, busy
// time, windows, histograms, utilization, timelines) hold the record
// semantics defined here to that one implementation.
package trace_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"gonamd/internal/projections"
	. "gonamd/internal/trace"
)

func rec(pe int32, entry string, start, dur float64, cat Category) ExecRecord {
	return ExecRecord{
		PE: pe, Obj: -1, Entry: entry, Start: start, End: start + dur,
		Spans: []Span{{Cat: cat, Dur: dur}},
	}
}

// categorySeconds maps a report's category rows by category name.
func categorySeconds(rep *projections.Report) map[string]float64 {
	out := map[string]float64{}
	for _, c := range rep.Categories {
		out[c.Category] = c.Seconds
	}
	return out
}

func TestDisabledLogDiscards(t *testing.T) {
	var l Log
	l.Add(rec(0, "x", 0, 1, CatOther))
	if len(l.Records) != 0 {
		t.Error("disabled log kept a record")
	}
	var nilLog *Log
	if nilLog.Enabled() {
		t.Error("nil log reports enabled")
	}
	nilLog.Add(rec(0, "x", 0, 1, CatOther)) // must not panic
}

func TestSummaryByEntry(t *testing.T) {
	l := NewLog()
	l.Add(rec(0, "nb", 0, 5, CatNonbonded))
	l.Add(rec(1, "nb", 0, 3, CatNonbonded))
	l.Add(rec(0, "integrate", 5, 1, CatIntegration))
	s := projections.Analyze(l, projections.Options{}).Entries
	if len(s) != 2 {
		t.Fatalf("summary rows = %d", len(s))
	}
	if s[0].Entry != "nb" || s[0].Count != 2 || s[0].Total != 8 || s[0].Max != 5 {
		t.Errorf("row 0 = %+v", s[0])
	}
	if s[1].Entry != "integrate" || s[1].Total != 1 {
		t.Errorf("row 1 = %+v", s[1])
	}
}

func TestCategoryTotalsPerPE(t *testing.T) {
	l := NewLog()
	l.Add(rec(0, "a", 0, 5, CatNonbonded))
	l.Add(rec(1, "b", 0, 3, CatBonded))
	rep := projections.Analyze(l, projections.Options{})
	if all := categorySeconds(rep); all["nonbonded"] != 5 || all["bonded"] != 3 {
		t.Errorf("totals = %v", all)
	}
	if pe := rep.PerPE; len(pe) != 2 || pe[0].BusySeconds != 5 || pe[1].BusySeconds != 3 {
		t.Errorf("per-PE busy = %+v", pe)
	}
}

func TestHistogram(t *testing.T) {
	l := NewLog()
	durations := []float64{0.001, 0.0015, 0.009, 0.0095, 0.0301}
	for _, d := range durations {
		l.Add(rec(0, "nb", 0, d, CatNonbonded))
	}
	l.Add(rec(0, "other", 0, 0.05, CatOther))
	h := projections.DurationHistogram(l, 0.002, func(r ExecRecord) bool { return r.Entry == "nb" })
	if h.N != 5 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Counts[0] != 2 {
		t.Errorf("bin 0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[4] != 2 {
		t.Errorf("bin 4 = %d, want 2", h.Counts[4])
	}
	if h.Counts[15] != 1 {
		t.Errorf("bin 15 = %d, want 1", h.Counts[15])
	}
	if math.Abs(h.MaxVal-0.0301) > 1e-12 {
		t.Errorf("MaxVal = %v", h.MaxVal)
	}
	if !strings.Contains(h.String(), "#") {
		t.Error("histogram rendering has no bars")
	}
}

func TestBimodality(t *testing.T) {
	// Unimodal: everything in bins 0-2 (max 3 ms < 3× median 1.5 ms ...
	// actually 3×1.5 = 4.5 ms, so nothing above).
	uni := NewLog()
	for i := 0; i < 100; i++ {
		uni.Add(rec(0, "nb", 0, 0.001+float64(i%3)*0.001, CatNonbonded))
	}
	hu := projections.DurationHistogram(uni, 0.001, nil)
	if b := hu.Bimodality(); b != 0 {
		t.Errorf("unimodal bimodality = %v, want 0", b)
	}
	// Bimodal: modes near 2 ms and 40 ms → the 40 ms mode is far above
	// 3× the 2-3 ms median.
	bi := NewLog()
	for i := 0; i < 80; i++ {
		bi.Add(rec(0, "nb", 0, 0.002, CatNonbonded))
	}
	for i := 0; i < 20; i++ {
		bi.Add(rec(0, "nb", 0, 0.040, CatNonbonded))
	}
	hb := projections.DurationHistogram(bi, 0.002, nil)
	if b := hb.Bimodality(); math.Abs(b-0.2) > 1e-9 {
		t.Errorf("bimodal fraction = %v, want 0.2", b)
	}
	var empty projections.Histogram
	if empty.Bimodality() != 0 {
		t.Error("empty histogram bimodality != 0")
	}
}

func TestBusyTime(t *testing.T) {
	l := NewLog()
	l.Add(rec(0, "a", 0, 2, CatOther))
	l.Add(rec(0, "b", 5, 3, CatOther))
	l.Add(rec(1, "c", 0, 1, CatOther))
	busy := projections.Analyze(l, projections.Options{}).PerPE
	if busy[0].BusySeconds != 5 || busy[1].BusySeconds != 1 {
		t.Errorf("busy = %+v", busy)
	}
}

func TestUtilization(t *testing.T) {
	l := NewLog()
	// PE0 busy [0,1), PE1 busy [0,2): over [0,2) with 2 bins and 2 PEs:
	// bin 0 = (1+1)/2 = 1.0, bin 1 = (0+1)/2 = 0.5.
	l.Add(rec(0, "a", 0, 1, CatOther))
	l.Add(rec(1, "b", 0, 2, CatOther))
	u := projections.Utilization(l, 2, 2, 0, 2)
	if math.Abs(u[0]-1.0) > 1e-12 || math.Abs(u[1]-0.5) > 1e-12 {
		t.Errorf("utilization = %v", u)
	}
	if projections.Utilization(l, 0, 2, 0, 2) != nil {
		t.Error("degenerate args should return nil")
	}
}

func TestWindow(t *testing.T) {
	l := NewLog()
	l.Add(rec(0, "a", 0, 1, CatNonbonded))
	l.Add(rec(0, "b", 2, 1, CatBonded))
	l.Add(rec(0, "c", 5, 1, CatIntegration))
	// The measured window [1.5, 4) overlaps only record b.
	w := projections.MeasureAudit(l, 1, 1.5, 4, 1, 2.5)
	if w.Nonbonded != 0 || w.Bonded != 1 || w.Integration != 0 || w.Idle != 1.5 {
		t.Errorf("window audit = %+v", w)
	}
}

func TestTimeline(t *testing.T) {
	l := NewLog()
	l.Add(ExecRecord{PE: 0, Entry: "nb", Start: 0, End: 0.5,
		Spans: []Span{{Cat: CatNonbonded, Dur: 0.5}}})
	l.Add(ExecRecord{PE: 1, Entry: "int", Start: 0.5, End: 1.0,
		Spans: []Span{{Cat: CatIntegration, Dur: 0.5}}})
	out := projections.Timeline(l, projections.TimelineOptions{PEs: []int32{0, 1}, T0: 0, T1: 1, Width: 10})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("timeline lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "NNNNN.....") {
		t.Errorf("PE0 row = %q", lines[0])
	}
	if !strings.Contains(lines[1], ".....IIIII") {
		t.Errorf("PE1 row = %q", lines[1])
	}
}

func TestClear(t *testing.T) {
	l := NewLog()
	l.Add(rec(0, "a", 0, 1, CatOther))
	l.Clear()
	if len(l.Records) != 0 {
		t.Error("Clear left records")
	}
	l.Add(rec(0, "b", 0, 1, CatOther))
	if len(l.Records) != 1 {
		t.Error("log disabled after Clear")
	}
}

func TestCategoryString(t *testing.T) {
	names := map[Category]string{
		CatOther: "other", CatNonbonded: "nonbonded", CatBonded: "bonded",
		CatIntegration: "integration", CatComm: "comm", CatRecv: "recv",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := NewLog()
	l.Add(ExecRecord{PE: 3, Obj: 42, Entry: "compute.notify", Start: 1.5, End: 1.52,
		Spans: []Span{{Cat: CatRecv, Dur: 0.001}, {Cat: CatNonbonded, Dur: 0.019}}})
	l.Add(ExecRecord{PE: 0, Obj: -1, Entry: "patch.force", Start: 2, End: 2.1,
		Spans: []Span{{Cat: CatIntegration, Dur: 0.1}}})

	var buf strings.Builder
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 {
		t.Fatalf("records = %d", len(got.Records))
	}
	for i := range l.Records {
		a, b := l.Records[i], got.Records[i]
		if a.PE != b.PE || a.Obj != b.Obj || a.Entry != b.Entry || a.Start != b.Start || a.End != b.End {
			t.Errorf("record %d differs: %+v vs %+v", i, a, b)
		}
		if len(a.Spans) != len(b.Spans) {
			t.Fatalf("record %d span counts differ", i)
		}
		for k := range a.Spans {
			if a.Spans[k] != b.Spans[k] {
				t.Errorf("record %d span %d: %v vs %v", i, k, a.Spans[k], b.Spans[k])
			}
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{bad json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"pe":0,"entry":"x","start":0,"end":1,"spans":[{"cat":"nope","dur":1}]}`)); err == nil {
		t.Error("unknown category accepted")
	}
	empty, err := ReadJSON(strings.NewReader(""))
	if err != nil || len(empty.Records) != 0 {
		t.Errorf("empty input: %v, %d records", err, len(empty.Records))
	}
}

// TestScanJSONBoundsPE is the regression test for a one-line trace that
// made cmd/projections allocate gigabytes: the analyzer keeps a per-PE
// table, so a record naming PE 50,000,000 grew it to 50,000,001 rows.
// The reader now rejects a PE outside [0, 65536), naming the record.
func TestScanJSONBoundsPE(t *testing.T) {
	ok := `{"pe":0,"obj":-1,"entry":"a","start":0,"end":1}` + "\n" +
		`{"pe":65535,"obj":-1,"entry":"b","start":0,"end":1}` + "\n"
	if l, err := ReadJSON(strings.NewReader(ok)); err != nil || len(l.Records) != 2 {
		t.Fatalf("in-range PEs: %v", err)
	}
	for _, pe := range []string{"50000000", "65536", "2147483647", "-1"} {
		in := ok + `{"pe":` + pe + `,"obj":-1,"entry":"huge","start":0,"end":1}` + "\n"
		_, err := ReadJSON(strings.NewReader(in))
		if err == nil {
			t.Errorf("pe %s accepted", pe)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "record 2") || !strings.Contains(msg, `"huge"`) || !strings.Contains(msg, "pe "+pe) {
			t.Errorf("pe %s: error %q does not name the record", pe, msg)
		}
	}
}

func TestTimelineBoundaryAlignment(t *testing.T) {
	// Regression: a span boundary landing exactly on a slice boundary
	// used to make the renderer loop forever (zero-length segment).
	l := NewLog()
	l.Add(ExecRecord{PE: 0, Entry: "x", Start: 0.1, End: 0.3,
		Spans: []Span{{Cat: CatNonbonded, Dur: 0.1}, {Cat: CatIntegration, Dur: 0.1}}})
	done := make(chan string, 1)
	go func() {
		done <- projections.Timeline(l, projections.TimelineOptions{PEs: []int32{0}, T0: 0, T1: 1, Width: 10})
	}()
	select {
	case out := <-done:
		if !strings.Contains(out, "N") || !strings.Contains(out, "I") {
			t.Errorf("timeline missing categories: %q", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Timeline hung on bin-aligned span boundaries")
	}
}
