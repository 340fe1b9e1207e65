package projections

import (
	"bytes"
	"io"
	"math"
	"os"
	"testing"
)

// FuzzAnalyzeReader drives arbitrary bytes through AnalyzeReader, the
// streaming path cmd/projections analyzes trace files with, and renders
// what it accepts. Analysis must fail with an error or succeed, never
// panic; an accepted trace's report has at most 65,536 PEs (the trace
// reader's bound — an unbounded PE once cost gigabytes of per-PE rows),
// and its category rows sum to BusySeconds exactly.
func FuzzAnalyzeReader(f *testing.F) {
	golden, err := os.ReadFile("../trace/testdata/log.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	var buf bytes.Buffer
	if err := testLog().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"pe":50000000,"obj":-1,"entry":"x","start":0,"end":1}`))
	// Negative busy time once made the per-PE bar a negative Repeat count.
	f.Add([]byte(`{"pe":0,"obj":-1,"entry":"x","start":1,"end":0,"spans":[{"cat":"nonbonded","dur":-5}]}
{"pe":1,"obj":-1,"entry":"y","start":0,"end":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := AnalyzeReader(bytes.NewReader(data), Options{StepSeries: true})
		if err != nil {
			return
		}
		if rep.PEs > 1<<16 || len(rep.PerPE) > 1<<16 {
			t.Fatalf("report has %d PEs and %d per-PE rows, want at most 65536", rep.PEs, len(rep.PerPE))
		}
		sum := 0.0
		for _, c := range rep.Categories {
			sum += c.Seconds
		}
		if sum != rep.BusySeconds && !math.IsNaN(sum) {
			t.Fatalf("category rows sum to %.17g, BusySeconds is %.17g", sum, rep.BusySeconds)
		}
		rep.WriteText(io.Discard)
	})
}
