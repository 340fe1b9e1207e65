// Package projections is the performance-analysis layer over the
// Projections-style execution traces the rest of the system emits
// (internal/trace): the analogue of the Charm++ Projections tool the
// paper's Section 5 diagnosis was carried out with. A streaming Analyzer
// consumes ExecRecords — from an in-memory trace.Log or a saved JSON
// Lines trace file — and produces the artifacts the paper's figures and
// Table 1 audit are built from:
//
//   - per-category time profiles (compute / comm / PME / retry / idle /
//     overhead) whose totals sum exactly to the recorded busy time,
//   - per-entry summary profiles (paper §4.1),
//   - the Table 1 performance audit of a measured window (audit.go),
//   - per-PE utilization with an ASCII utilization Gantt (the shape of
//     the paper's Figures 5–6) and per-PE timelines (Figures 3–4),
//   - grainsize histograms with percentiles over compute-object
//     execution times (Figures 1–2),
//   - step-time series derived from step boundary markers, and
//   - load-balance before/after imbalance reports (lb.go).
//
// Reports render as text tables (render.go) and as machine-readable
// JSON under a versioned schema.
package projections

import (
	"io"
	"sort"

	"gonamd/internal/trace"
)

// Schema identifies the JSON report format; bump the suffix on any
// incompatible change.
const Schema = "gonamd-projections/1"

// Compute categories: the span categories that mark a record as a
// compute-object execution for grainsize purposes (nonbonded and bonded
// force objects plus PME pencil work — patch integrations and protocol
// records are not compute objects).
var computeCats = [trace.NumCategories]bool{
	trace.CatNonbonded: true,
	trace.CatBonded:    true,
	trace.CatPME:       true,
}

// overheadCats are the busy-time categories counted as overhead rather
// than useful work in the summary percentages (message handling,
// reliable-delivery protocol, and unattributed residue).
var overheadCats = [trace.NumCategories]bool{
	trace.CatComm:  true,
	trace.CatRecv:  true,
	trace.CatRetry: true,
	trace.CatOther: true,
}

// StepMarkerEntry is the entry name of the zero-duration step boundary
// markers the engines and the cluster simulation emit.
const StepMarkerEntry = "step"

// Options tunes report extraction.
type Options struct {
	// PEs overrides the processor count (0 infers max recorded PE + 1).
	PEs int
	// HistBins is the grainsize histogram bin count (0 = 30).
	HistBins int
	// TopEntries caps the per-entry table (0 = 12; negative = all).
	TopEntries int
	// StepSeries includes the full per-step duration series in the
	// report (the summary statistics are always present when step
	// markers exist).
	StepSeries bool
}

func (o Options) withDefaults() Options {
	if o.HistBins == 0 {
		o.HistBins = 30
	}
	if o.TopEntries == 0 {
		o.TopEntries = 12
	}
	return o
}

type entryAgg struct {
	count int
	total float64
	max   float64
}

type stepMark struct {
	obj int32
	at  float64
}

// Analyzer accumulates trace records incrementally. The zero value is
// ready to use; feed it with Add and extract a Report at any point.
type Analyzer struct {
	records  int
	sawFirst bool
	t0, t1   float64

	cat    [trace.NumCategories]float64
	peBusy []float64
	entry  map[string]*entryAgg
	grains []float64
	steps  []stepMark
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

// Add folds one record into the aggregation.
func (a *Analyzer) Add(r trace.ExecRecord) {
	a.records++
	if !a.sawFirst || r.Start < a.t0 {
		a.t0 = r.Start
		a.sawFirst = true
	}
	if r.End > a.t1 {
		a.t1 = r.End
	}

	// Category accounting. Each record's busy time is the sum of its
	// span durations plus any positive residual (execution time not
	// attributed to a span), which is charged to CatOther; summing the
	// per-category totals therefore reconstructs total busy time
	// exactly, by construction.
	d := r.Dur()
	spanSum := 0.0
	var domCat trace.Category
	domDur := -1.0
	for _, sp := range r.Spans {
		a.cat[sp.Cat] += sp.Dur
		spanSum += sp.Dur
		if sp.Dur > domDur {
			domDur = sp.Dur
			domCat = sp.Cat
		}
	}
	busy := spanSum
	if resid := d - spanSum; resid > 0 {
		a.cat[trace.CatOther] += resid
		busy += resid
	}
	if len(r.Spans) == 0 && d > 0 {
		domCat = trace.CatOther
	}

	if pe := int(r.PE); pe >= 0 {
		for len(a.peBusy) <= pe {
			a.peBusy = append(a.peBusy, 0)
		}
		a.peBusy[pe] += busy
	}

	if a.entry == nil {
		a.entry = make(map[string]*entryAgg)
	}
	ea := a.entry[r.Entry]
	if ea == nil {
		ea = &entryAgg{}
		a.entry[r.Entry] = ea
	}
	ea.count++
	ea.total += d
	if d > ea.max {
		ea.max = d
	}

	if r.Entry == StepMarkerEntry && d == 0 {
		a.steps = append(a.steps, stepMark{obj: r.Obj, at: r.Start})
		return
	}
	if d > 0 && r.Obj >= 0 && computeCats[domCat] {
		a.grains = append(a.grains, d)
	}
}

// AddLog folds every record of a log into the aggregation.
func (a *Analyzer) AddLog(l *trace.Log) {
	for _, r := range l.Records {
		a.Add(r)
	}
}

// CategoryTotal is one row of the per-category time profile.
type CategoryTotal struct {
	Category string  `json:"category"`
	Seconds  float64 `json:"seconds"`
	PctBusy  float64 `json:"pct_busy"`
}

// PEStat is one processor's share of the profile.
type PEStat struct {
	PE          int     `json:"pe"`
	BusySeconds float64 `json:"busy_seconds"`
	Utilization float64 `json:"utilization"`
}

// EntryStat is one row of the per-entry summary profile.
type EntryStat struct {
	Entry   string  `json:"entry"`
	Count   int     `json:"count"`
	Total   float64 `json:"total_seconds"`
	Mean    float64 `json:"mean_seconds"`
	Max     float64 `json:"max_seconds"`
	PctBusy float64 `json:"pct_busy"`
}

// GrainsizeReport is the distribution of compute-object execution times.
type GrainsizeReport struct {
	N        int     `json:"n"`
	Mean     float64 `json:"mean_seconds"`
	Min      float64 `json:"min_seconds"`
	P10      float64 `json:"p10_seconds"`
	P50      float64 `json:"p50_seconds"`
	P90      float64 `json:"p90_seconds"`
	P99      float64 `json:"p99_seconds"`
	Max      float64 `json:"max_seconds"`
	BinWidth float64 `json:"bin_width_seconds"`
	Counts   []int   `json:"counts"`
}

// StepStats summarizes the step-time series derived from step markers.
type StepStats struct {
	N      int       `json:"n"`
	Mean   float64   `json:"mean_seconds"`
	Min    float64   `json:"min_seconds"`
	Max    float64   `json:"max_seconds"`
	P50    float64   `json:"p50_seconds"`
	P90    float64   `json:"p90_seconds"`
	Series []float64 `json:"series_seconds,omitempty"`
}

// Report is the analysis result. Busy is defined as the sum of the
// category totals (and is therefore exactly their sum); idle is the
// remainder of the PEs×span time budget.
type Report struct {
	Schema  string `json:"schema"`
	Records int    `json:"records"`
	PEs     int    `json:"pes"`

	T0   float64 `json:"t0_seconds"`
	T1   float64 `json:"t1_seconds"`
	Span float64 `json:"span_seconds"`

	BusySeconds     float64 `json:"busy_seconds"`
	IdleSeconds     float64 `json:"idle_seconds"`
	OverheadSeconds float64 `json:"overhead_seconds"`
	Utilization     float64 `json:"utilization"`
	IdlePct         float64 `json:"idle_pct"`
	OverheadPctBusy float64 `json:"overhead_pct_busy"`

	Categories []CategoryTotal  `json:"categories"`
	PerPE      []PEStat         `json:"per_pe"`
	Entries    []EntryStat      `json:"entries"`
	Grainsize  *GrainsizeReport `json:"grainsize,omitempty"`
	Steps      *StepStats       `json:"steps,omitempty"`
}

// Report extracts the analysis under the given options. The analyzer
// remains usable (more records may be added and a fresh report taken).
func (a *Analyzer) Report(opt Options) *Report {
	opt = opt.withDefaults()
	rep := &Report{
		Schema:  Schema,
		Records: a.records,
		T0:      a.t0,
		T1:      a.t1,
		Span:    a.t1 - a.t0,
	}
	rep.PEs = len(a.peBusy)
	if opt.PEs > rep.PEs {
		rep.PEs = opt.PEs
	}

	// Busy is the exact sum of the category totals: accumulate the
	// report's BusySeconds from the same values its Categories rows
	// carry, in the same (sorted) order the rows are presented, so a
	// reader re-summing the table reproduces BusySeconds bitwise.
	for c := 0; c < trace.NumCategories; c++ {
		sec := a.cat[c]
		if sec == 0 {
			continue
		}
		rep.Categories = append(rep.Categories, CategoryTotal{
			Category: trace.Category(c).String(),
			Seconds:  sec,
		})
		if overheadCats[c] {
			rep.OverheadSeconds += sec
		}
	}
	sort.SliceStable(rep.Categories, func(i, j int) bool {
		return rep.Categories[i].Seconds > rep.Categories[j].Seconds
	})
	for _, ct := range rep.Categories {
		rep.BusySeconds += ct.Seconds
	}
	for i := range rep.Categories {
		rep.Categories[i].PctBusy = pct(rep.Categories[i].Seconds, rep.BusySeconds)
	}
	budget := float64(rep.PEs) * rep.Span
	rep.IdleSeconds = budget - rep.BusySeconds
	if rep.IdleSeconds < 0 {
		rep.IdleSeconds = 0
	}
	if budget > 0 {
		rep.Utilization = rep.BusySeconds / budget
		rep.IdlePct = pct(rep.IdleSeconds, budget)
	}
	rep.OverheadPctBusy = pct(rep.OverheadSeconds, rep.BusySeconds)

	for pe, busy := range a.peBusy {
		st := PEStat{PE: pe, BusySeconds: busy}
		if rep.Span > 0 {
			st.Utilization = busy / rep.Span
		}
		rep.PerPE = append(rep.PerPE, st)
	}

	for name, ea := range a.entry {
		rep.Entries = append(rep.Entries, EntryStat{
			Entry:   name,
			Count:   ea.count,
			Total:   ea.total,
			Mean:    ea.total / float64(ea.count),
			Max:     ea.max,
			PctBusy: pct(ea.total, rep.BusySeconds),
		})
	}
	sort.Slice(rep.Entries, func(i, j int) bool {
		if rep.Entries[i].Total != rep.Entries[j].Total {
			return rep.Entries[i].Total > rep.Entries[j].Total
		}
		return rep.Entries[i].Entry < rep.Entries[j].Entry
	})
	if opt.TopEntries > 0 && len(rep.Entries) > opt.TopEntries {
		rep.Entries = rep.Entries[:opt.TopEntries]
	}

	rep.Grainsize = grainsizeReport(a.grains, opt.HistBins)
	rep.Steps = stepStats(a.steps, a.t0, opt.StepSeries)
	return rep
}

// Analyze runs a whole log through a fresh analyzer.
func Analyze(l *trace.Log, opt Options) *Report {
	a := NewAnalyzer()
	a.AddLog(l)
	return a.Report(opt)
}

// AnalyzeReader streams a JSON Lines trace (trace.WriteJSON format)
// through a fresh analyzer without materializing the log.
func AnalyzeReader(r io.Reader, opt Options) (*Report, error) {
	a := NewAnalyzer()
	err := trace.ScanJSON(r, func(rec trace.ExecRecord) error {
		a.Add(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a.Report(opt), nil
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

// percentile returns the pth percentile (0..100) of sorted samples by
// nearest-rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func grainsizeReport(samples []float64, bins int) *GrainsizeReport {
	if len(samples) == 0 {
		return nil
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	g := &GrainsizeReport{
		N:   len(sorted),
		Min: sorted[0],
		Max: sorted[len(sorted)-1],
		P10: percentile(sorted, 10),
		P50: percentile(sorted, 50),
		P90: percentile(sorted, 90),
		P99: percentile(sorted, 99),
	}
	total := 0.0
	for _, s := range sorted {
		total += s
	}
	g.Mean = total / float64(g.N)

	g.BinWidth = g.Max / float64(bins)
	if g.BinWidth <= 0 {
		g.BinWidth = 1e-9
	}
	g.Counts = make([]int, bins)
	for _, s := range sorted {
		b := int(s / g.BinWidth)
		if b >= bins {
			b = bins - 1
		}
		g.Counts[b]++
	}
	return g
}

func stepStats(marks []stepMark, t0 float64, series bool) *StepStats {
	if len(marks) == 0 {
		return nil
	}
	sorted := make([]stepMark, len(marks))
	copy(sorted, marks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	durs := make([]float64, 0, len(sorted))
	prev := t0
	for _, m := range sorted {
		durs = append(durs, m.at-prev)
		prev = m.at
	}
	ss := &StepStats{N: len(durs)}
	total := 0.0
	ss.Min = durs[0]
	for _, d := range durs {
		total += d
		if d < ss.Min {
			ss.Min = d
		}
		if d > ss.Max {
			ss.Max = d
		}
	}
	ss.Mean = total / float64(len(durs))
	sortedD := make([]float64, len(durs))
	copy(sortedD, durs)
	sort.Float64s(sortedD)
	ss.P50 = percentile(sortedD, 50)
	ss.P90 = percentile(sortedD, 90)
	if series {
		ss.Series = durs
	}
	return ss
}
