// Command projections analyzes a Projections-style trace (JSON Lines,
// as written by the engines' WithTrace instrumentation, cmd/mdrun
// -trace, a traced gonamdd job's <id>.trace, or a cluster simulation's
// CollectTrace)
// and prints utilization, per-category time profiles, grainsize
// histograms, per-PE timelines, and step-time statistics — the analyses
// behind the paper's Figures 1–6 and Table 1.
//
// Usage:
//
//	projections [flags] trace.jsonl
//
// Reads stdin when the path is "-" or absent. With only -summary,
// -grainsize, or -json the trace streams through the analyzer without
// being materialized; -timeline and -gantt need the full log in memory.
// With -ftdc the input is an FTDC telemetry file (binary chunked or
// JSONL, as written by mdrun -metrics or a gonamdd job) and the output
// is per-field summaries plus a steps/sec sparkline.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"gonamd/internal/ftdc"
	"gonamd/internal/projections"
	"gonamd/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("projections: ")

	var (
		summary   = flag.Bool("summary", true, "print the summary report (categories, per-PE utilization, entries, steps)")
		timeline  = flag.Bool("timeline", false, "print the per-PE timeline (dominant-category letters, Figures 3-4)")
		gantt     = flag.Bool("gantt", false, "print the utilization-vs-time ASCII chart (Figures 5-6)")
		grainsize = flag.Bool("grainsize", false, "print only the grainsize histogram (Figures 1-2)")
		jsonOut   = flag.Bool("json", false, "emit the report as versioned JSON instead of text")
		pes       = flag.Int("pes", 0, "PE count override (default: 1+max PE seen in the trace)")
		bins      = flag.Int("bins", 0, "grainsize histogram bins (default 30)")
		top       = flag.Int("top", 0, "entry-table rows (default 12)")
		width     = flag.Int("width", 100, "timeline/gantt width in characters")
		ftdcMode  = flag.Bool("ftdc", false, "input is FTDC telemetry (binary chunked or JSONL, as written by mdrun -metrics or a gonamdd job); print per-field summaries and a throughput sparkline")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	if path := flag.Arg(0); path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}

	if *ftdcMode {
		schema, samples, err := ftdc.ReadAny(in)
		if err != nil {
			log.Fatal(err)
		}
		ftdc.WriteSummary(os.Stdout, schema, samples)
		if schema.FieldIndex("steps_per_sec") >= 0 {
			fmt.Println()
			ftdc.WriteRateSeries(os.Stdout, schema, samples, "steps_per_sec", *width)
		}
		return
	}

	opt := projections.Options{PEs: *pes, HistBins: *bins, TopEntries: *top}

	// The timeline and gantt renderings replay the raw records, so those
	// modes materialize the log; every other mode streams.
	var rep *projections.Report
	var tlog *trace.Log
	var err error
	if *timeline || *gantt {
		if tlog, err = trace.ReadJSON(in); err != nil {
			log.Fatal(err)
		}
		rep = projections.Analyze(tlog, opt)
	} else if rep, err = projections.AnalyzeReader(in, opt); err != nil {
		log.Fatal(err)
	}

	switch {
	case *jsonOut:
		if err := rep.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
	case *grainsize:
		fmt.Print(rep.GrainsizeText())
	case *summary:
		rep.WriteText(os.Stdout)
	}

	if *timeline {
		peList := make([]int32, rep.PEs)
		for i := range peList {
			peList[i] = int32(i)
		}
		fmt.Print(projections.Timeline(tlog, projections.TimelineOptions{
			PEs: peList, T0: rep.T0, T1: rep.T1, Width: *width,
		}))
	}
	if *gantt {
		fmt.Print(projections.UtilizationGantt(tlog, rep.PEs, *width, 10, rep.T0, rep.T1))
	}
}
