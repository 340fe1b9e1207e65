package trace_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gonamd/internal/projections"
	. "gonamd/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenLog builds a small deterministic log exercising every category,
// the recovery and PME mesh ones included, laid out as two PEs working
// through a step that ends in a rollback.
func goldenLog() *Log {
	l := NewLog()
	l.Add(ExecRecord{PE: 0, Obj: 3, Entry: "compute.notify", Start: 0.000, End: 0.020,
		Spans: []Span{{Cat: CatRecv, Dur: 0.001}, {Cat: CatNonbonded, Dur: 0.019}}})
	l.Add(ExecRecord{PE: 0, Obj: 1, Entry: "patch.bonded", Start: 0.020, End: 0.028,
		Spans: []Span{{Cat: CatBonded, Dur: 0.008}}})
	l.Add(ExecRecord{PE: 1, Obj: 2, Entry: "compute.notify", Start: 0.000, End: 0.025,
		Spans: []Span{{Cat: CatRecv, Dur: 0.001}, {Cat: CatNonbonded, Dur: 0.024}}})
	l.Add(ExecRecord{PE: 0, Obj: -1, Entry: "recovery.rollback", Start: 0.050, End: 0.060,
		Spans: []Span{{Cat: CatRecovery, Dur: 0.010}}})
	l.Add(ExecRecord{PE: 1, Obj: -1, Entry: "recovery.rollback", Start: 0.050, End: 0.060,
		Spans: []Span{{Cat: CatRecovery, Dur: 0.010}}})
	l.Add(ExecRecord{PE: 0, Obj: 1, Entry: "patch.integrate", Start: 0.060, End: 0.065,
		Spans: []Span{{Cat: CatIntegration, Dur: 0.005}}})
	l.Add(ExecRecord{PE: 0, Obj: 1, Entry: "patch.send", Start: 0.065, End: 0.067,
		Spans: []Span{{Cat: CatComm, Dur: 0.002}}})
	l.Add(ExecRecord{PE: 1, Obj: 0, Entry: "ensemble.exchange", Start: 0.065, End: 0.070,
		Spans: []Span{{Cat: CatExchange, Dur: 0.005}}})
	l.Add(ExecRecord{PE: 0, Obj: 5, Entry: "pme.charges", Start: 0.067, End: 0.072,
		Spans: []Span{{Cat: CatPME, Dur: 0.005}}})
	l.Add(ExecRecord{PE: 1, Obj: -1, Entry: "misc", Start: 0.070, End: 0.072,
		Spans: []Span{{Cat: CatOther, Dur: 0.002}}})
	return l
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run 'go test ./internal/trace -update' to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s does not match golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenJSON pins the exact JSON Lines serialization, including the
// recovery category name.
func TestGoldenJSON(t *testing.T) {
	var buf strings.Builder
	if err := goldenLog().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "log.jsonl", buf.String())

	// The golden bytes must round-trip back through the reader.
	back, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("golden JSON does not read back: %v", err)
	}
	if len(back.Records) != len(goldenLog().Records) {
		t.Errorf("round trip has %d records, want %d", len(back.Records), len(goldenLog().Records))
	}
}

// TestGoldenCategoryTotals pins the per-category accounting over the
// same log, as projections computes it, as a stable text table of the
// categories the log charges, in category order.
func TestGoldenCategoryTotals(t *testing.T) {
	totals := categorySeconds(projections.Analyze(goldenLog(), projections.Options{}))
	var b strings.Builder
	for c := Category(0); c < Category(NumCategories); c++ {
		if sec, ok := totals[c.String()]; ok {
			fmt.Fprintf(&b, "%-12s %.6f\n", c.String(), sec)
		}
	}
	checkGolden(t, "category_totals.txt", b.String())
}
