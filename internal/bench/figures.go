package bench

import (
	"fmt"
	"sort"
	"strings"

	"gonamd/internal/core"
	"gonamd/internal/ldb"
	"gonamd/internal/machine"
	"gonamd/internal/trace"
)

// isNonbondedWork selects trace records in which nonbonded force work was
// actually performed (the grainsize population of Figures 1-2).
func isNonbondedWork(rec trace.ExecRecord) bool {
	for _, sp := range rec.Spans {
		if sp.Cat == trace.CatNonbonded {
			return true
		}
	}
	return false
}

// GrainsizeHistogram runs a short traced ApoA-I simulation and returns
// the distribution of nonbonded compute execution times in 2 ms bins, as
// in Figures 1 (split=false) and 2 (split=true). The distribution is a
// property of the decomposition, not the processor count; 64 PEs keeps
// the run quick while exercising remote communication.
func GrainsizeHistogram(split bool) (*trace.Histogram, error) {
	w, err := ApoA1Workload()
	if err != nil {
		return nil, err
	}
	model := machine.ASCIRed()
	cfg := core.Config{
		PEs: 64, Model: model,
		SplitSelf:    true, // Figure 1's "initial" code already split self computes
		GrainSplit:   split,
		SplitBonded:  true,
		MulticastOpt: true,
		LB:           ldb.NoOp{}, // the paper measured grainsizes pre-balancing
		MeasureSteps: 2,
		CollectTrace: true,
	}
	sim, err := core.NewSim(w, cfg)
	if err != nil {
		return nil, err
	}
	res := sim.Run()
	steps := float64(len(res.StepDurations) + 1)
	h := res.Trace.Histogram(2e-3, isNonbondedWork)
	// Normalize counts to per-timestep task counts like the paper's
	// "number of instances during an average timestep".
	for i := range h.Counts {
		h.Counts[i] = int(float64(h.Counts[i])/steps + 0.5)
	}
	h.N = 0
	for _, c := range h.Counts {
		h.N += c
	}
	return h, nil
}

// Figure1 is the grainsize distribution before splitting: bimodal, with
// face-pair computes forming a heavy upper mode (paper: max ≈ 42 ms).
func Figure1() (*trace.Histogram, error) { return GrainsizeHistogram(false) }

// Figure2 is the distribution after §4.2.1 splitting: unimodal with a
// small maximum.
func Figure2() (*trace.Histogram, error) { return GrainsizeHistogram(true) }

// TimelineView runs a traced 1024-PE ApoA-I simulation with or without
// the optimized multicast and renders two timesteps of a processor
// window as an Upshot-style text timeline (Figures 3-4). It also reports
// the average duration of the integration-and-send critical method.
type TimelineView struct {
	Timeline       string
	StepTime       float64 // average measured step, s
	IntegrateSends float64 // mean duration of the patch integrate+send executions, s
}

// Timelines produces the Figure 3 (naive multicast) or Figure 4
// (optimized) view.
func Timelines(optimized bool) (*TimelineView, error) {
	w, err := ApoA1Workload()
	if err != nil {
		return nil, err
	}
	model := machine.ASCIRed()
	cfg := StdConfig(model, 1024)
	cfg.MulticastOpt = optimized
	cfg.CollectTrace = true
	sim, err := core.NewSim(w, cfg)
	if err != nil {
		return nil, err
	}
	res := sim.Run()

	// Average duration of the paper's critical entry method: the
	// execution that receives the last force message, integrates, and
	// multicasts new positions — identified by having both an
	// integration span and send (comm) work.
	var tot float64
	var n int
	for _, rec := range res.Trace.Records {
		if rec.Start < res.MeasureT0 || rec.Start >= res.MeasureT1 {
			continue
		}
		hasInt, hasComm := false, false
		for _, sp := range rec.Spans {
			switch sp.Cat {
			case trace.CatIntegration:
				hasInt = true
			case trace.CatComm:
				hasComm = true
			}
		}
		if hasInt && hasComm {
			tot += rec.Dur()
			n++
		}
	}
	v := &TimelineView{StepTime: res.AvgStep}
	if n > 0 {
		v.IntegrateSends = tot / float64(n)
	}

	// Render two steps across a window of PEs chosen around the
	// patch-home boundary (the paper's figures show processors both with
	// and without patches).
	t1 := res.MeasureT1
	t0 := t1 - 2*res.AvgStep
	pes := make([]int32, 0, 12)
	for pe := int32(238); pe < 250; pe++ {
		pes = append(pes, pe)
	}
	v.Timeline = res.Trace.Timeline(trace.TimelineOptions{PEs: pes, T0: t0, T1: t1, Width: 110})
	return v, nil
}

// Figure3 is the timeline before the multicast optimization.
func Figure3() (*TimelineView, error) { return Timelines(false) }

// Figure4 is the timeline after the multicast optimization.
func Figure4() (*TimelineView, error) { return Timelines(true) }

// FormatHistogram renders a grainsize histogram with summary statistics.
func FormatHistogram(title string, h *trace.Histogram) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "tasks/step=%d  max grainsize=%.1f ms  bimodal upper-mode fraction=%.2f\n",
		h.N, h.MaxVal*1e3, h.Bimodality())
	b.WriteString(h.String())
	return b.String()
}

// TracedRun runs the standard ApoA-I simulation on pes PEs with trace
// collection and returns the raw execution-record log (analyze with
// internal/projections or save as JSONL for cmd/projections).
func TracedRun(pes int) (*trace.Log, error) {
	w, err := ApoA1Workload()
	if err != nil {
		return nil, err
	}
	model := machine.ASCIRed()
	cfg := StdConfig(model, pes)
	cfg.CollectTrace = true
	sim, err := core.NewSim(w, cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run().Trace, nil
}

// SummaryProfile returns the per-entry summary profile of a short traced
// run (the §4.1 "second level of instrumentation").
func SummaryProfile(pes int) (string, error) {
	l, err := TracedRun(pes)
	if err != nil {
		return "", err
	}
	sums := l.SummaryByEntry()
	sort.Slice(sums, func(i, j int) bool { return sums[i].Total > sums[j].Total })
	var b strings.Builder
	fmt.Fprintf(&b, "summary profile, ApoA-I on %d PEs (entire run)\n", pes)
	fmt.Fprintf(&b, "%-18s %10s %14s %12s\n", "entry", "count", "total (s)", "max (ms)")
	for _, s := range sums {
		fmt.Fprintf(&b, "%-18s %10d %14.3f %12.3f\n", s.Entry, s.Count, s.Total, s.Max*1e3)
	}
	return b.String(), nil
}
