package projections

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gonamd/internal/ldb"
	"gonamd/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestGoldenSummaryText pins the text rendering: trace times are virtual
// (hand-written), so the output is fully deterministic.
func TestGoldenSummaryText(t *testing.T) {
	rep := Analyze(testLog(), Options{HistBins: 5})
	var buf bytes.Buffer
	rep.WriteText(&buf)
	checkGolden(t, "summary.txt", buf.Bytes())
}

// TestGoldenJSON pins the versioned JSON schema.
func TestGoldenJSON(t *testing.T) {
	rep := Analyze(testLog(), Options{HistBins: 5, StepSeries: true})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.json", buf.Bytes())
}

// TestGoldenGantt pins the utilization chart rendering.
func TestGoldenGantt(t *testing.T) {
	l := testLog()
	got := UtilizationGantt(l, 2, 50, 5, 0, 1.25)
	checkGolden(t, "gantt.txt", []byte(got))
}

// TestGoldenTimeline pins the timeline rendering of the trace package's
// golden log, which covers every category: it must show the retry (T)
// and recovery (V) letters introduced with fault injection and the PME
// letter (P).
func TestGoldenTimeline(t *testing.T) {
	f, err := os.Open("../trace/testdata/log.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, err := trace.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	out := Timeline(l, TimelineOptions{PEs: []int32{0, 1}, T0: 0, T1: 0.08, Width: 80})
	for _, letter := range []string{"T", "V", "P"} {
		if !strings.Contains(out, letter) {
			t.Errorf("timeline missing category letter %q:\n%s", letter, out)
		}
	}
	checkGolden(t, "timeline.txt", []byte(out))
}

// TestGoldenLBReport pins the load-balance before/after table.
func TestGoldenLBReport(t *testing.T) {
	passes := []ldb.Stats{
		{MaxLoad: 1.80, AvgLoad: 1.20, Imbalance: 0.60, Proxies: 140},
		{MaxLoad: 1.32, AvgLoad: 1.20, Imbalance: 0.12, Proxies: 148},
		{MaxLoad: 1.26, AvgLoad: 1.20, Imbalance: 0.06, Proxies: 151},
	}
	checkGolden(t, "lb.txt", []byte(LBReport(passes)))
}

// TestGoldenHierarchicalLBReport pins the hierarchical strategy's
// before/after report on a deterministic synthetic problem: 64 PEs in
// groups of 16 with every object piled into the first group, so the
// report shows both the group-local refinement and the cross-group
// moves recovering the imbalance. The strategy is deterministic, so the
// rendered table is stable.
func TestGoldenHierarchicalLBReport(t *testing.T) {
	const npe, npatch = 64, 64
	p := &ldb.Problem{NumPE: npe, NumPatches: npatch, PatchHome: make([]int, npatch)}
	for pt := range p.PatchHome {
		p.PatchHome[pt] = pt % npe
	}
	for i := 0; i < 256; i++ {
		p.Objects = append(p.Objects, ldb.Object{
			// Multiplicative-hash loads: irregular but reproducible.
			Load:       0.5 + float64(i*2654435761%100)/100,
			PE:         i % 16, // everything starts in the first group
			Patches:    []int{i % npatch},
			Migratable: true,
		})
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	before := make([]int, len(p.Objects))
	for i, o := range p.Objects {
		before[i] = o.PE
	}
	h := &ldb.Hierarchical{GroupSize: 16}
	after := h.Map(p, 0)
	passes := []ldb.Stats{ldb.Evaluate(p, before), ldb.Evaluate(p, after)}
	checkGolden(t, "lb_hierarchical.txt", []byte(LBReport(passes)))
}
