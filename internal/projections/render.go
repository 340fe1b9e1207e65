package projections

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"gonamd/internal/trace"
)

// WriteJSON emits the report as indented JSON (one self-contained
// document, schema-stamped for machine consumers).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders the full text summary.
func (r *Report) String() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// WriteText renders the summary as the text tables cmd/projections and
// the -profile flags print.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "projections summary (%s)\n", r.Schema)
	fmt.Fprintf(w, "records %d   PEs %d   window %.6fs .. %.6fs (span %.6fs)\n",
		r.Records, r.PEs, r.T0, r.T1, r.Span)
	fmt.Fprintf(w, "busy %.6fs of %.6fs PE-seconds: utilization %.1f%%   idle %.1f%%   overhead %.1f%% of busy\n",
		r.BusySeconds, r.BusySeconds+r.IdleSeconds, 100*r.Utilization, r.IdlePct, r.OverheadPctBusy)

	if len(r.Categories) > 0 {
		fmt.Fprintf(w, "\n%-12s %14s %8s\n", "category", "seconds", "% busy")
		for _, c := range r.Categories {
			fmt.Fprintf(w, "%-12s %14.6f %8.2f\n", c.Category, c.Seconds, c.PctBusy)
		}
		fmt.Fprintf(w, "%-12s %14.6f %8.2f\n", "total", r.BusySeconds, 100.0)
	}

	if len(r.PerPE) > 0 {
		fmt.Fprintf(w, "\nper-PE utilization\n")
		for _, p := range r.PerPE {
			bar := min(max(int(p.Utilization*40+0.5), 0), 40) // a crafted trace can make busy time negative
			fmt.Fprintf(w, "PE%4d |%-40s| %6.1f%%  busy %.6fs\n",
				p.PE, strings.Repeat("#", bar), 100*p.Utilization, p.BusySeconds)
		}
	}

	if len(r.Entries) > 0 {
		fmt.Fprintf(w, "\n%-24s %8s %12s %12s %12s %8s\n",
			"entry", "count", "total s", "mean ms", "max ms", "% busy")
		for _, e := range r.Entries {
			fmt.Fprintf(w, "%-24s %8d %12.6f %12.4f %12.4f %8.2f\n",
				e.Entry, e.Count, e.Total, e.Mean*1e3, e.Max*1e3, e.PctBusy)
		}
	}

	if r.Steps != nil {
		fmt.Fprintf(w, "\nsteps: n=%d  mean %.4f ms  min %.4f  p50 %.4f  p90 %.4f  max %.4f\n",
			r.Steps.N, r.Steps.Mean*1e3, r.Steps.Min*1e3, r.Steps.P50*1e3,
			r.Steps.P90*1e3, r.Steps.Max*1e3)
	}

	if r.Grainsize != nil {
		fmt.Fprintf(w, "\n%s", r.GrainsizeText())
	}
}

// GrainsizeText renders the grainsize distribution: percentile summary
// plus the ASCII histogram of the paper's Figures 1–2.
func (r *Report) GrainsizeText() string {
	g := r.Grainsize
	if g == nil {
		return "grainsize: no compute-object executions recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "grainsize (compute-object execution times): n=%d\n", g.N)
	fmt.Fprintf(&b, "  mean %.4f ms  min %.4f  p10 %.4f  p50 %.4f  p90 %.4f  p99 %.4f  max %.4f\n",
		g.Mean*1e3, g.Min*1e3, g.P10*1e3, g.P50*1e3, g.P90*1e3, g.P99*1e3, g.Max*1e3)
	writeBars(&b, "%9.3f-%-9.3f", g.Counts, g.BinWidth)
	return b.String()
}

// writeBars renders a histogram as horizontal ASCII bars, one bin per
// line labeled with its millisecond range in format's two verbs.
func writeBars(b *strings.Builder, format string, counts []int, binWidth float64) {
	maxCount := 0
	for _, c := range counts {
		maxCount = max(maxCount, c)
	}
	for i, c := range counts {
		bar := 0
		if maxCount > 0 {
			bar = c * 50 / maxCount
		}
		fmt.Fprintf(b, format+" ms |%s %d\n",
			float64(i)*binWidth*1e3, float64(i+1)*binWidth*1e3, strings.Repeat("#", bar), c)
	}
}

// Histogram is a fixed-bin-width histogram of execution durations.
type Histogram struct {
	BinWidth float64
	Counts   []int
	N        int
	MaxVal   float64
}

// DurationHistogram bins the durations of the records accepted by filter
// (nil accepts all) into bins of binWidth seconds — the grainsize
// distribution of Figures 1 and 2.
func DurationHistogram(l *trace.Log, binWidth float64, filter func(trace.ExecRecord) bool) *Histogram {
	h := &Histogram{BinWidth: binWidth}
	for _, r := range l.Records {
		if filter != nil && !filter(r) {
			continue
		}
		d := r.Dur()
		bin := int(d / binWidth)
		for len(h.Counts) <= bin {
			h.Counts = append(h.Counts, 0)
		}
		h.Counts[bin]++
		h.N++
		if d > h.MaxVal {
			h.MaxVal = d
		}
	}
	return h
}

// String renders the histogram as a horizontal ASCII bar chart, one bin
// per line.
func (h *Histogram) String() string {
	var b strings.Builder
	writeBars(&b, "%7.1f-%-7.1f", h.Counts, h.BinWidth)
	return b.String()
}

// Bimodality returns the fraction of samples lying above three times the
// (count-weighted) median bin value — the "upper mode" population. The
// paper's Figure 1 grainsize distribution has a visible upper mode of
// heavy face-pair computes; after splitting (Figure 2) this fraction
// drops to zero.
func (h *Histogram) Bimodality() float64 {
	if h.N == 0 {
		return 0
	}
	// Count-weighted median bin center.
	half := h.N / 2
	acc := 0
	median := 0.0
	for i, c := range h.Counts {
		acc += c
		if acc > half {
			median = (float64(i) + 0.5) * h.BinWidth
			break
		}
	}
	upper := 0
	for i, c := range h.Counts {
		if (float64(i)+0.5)*h.BinWidth > 3*median {
			upper += c
		}
	}
	return float64(upper) / float64(h.N)
}

// clipSlices charges the busy interval [lo, hi), clipped to the window
// [t0, t1), to the n time slices of width w that tile the window:
// add(b, d) receives the positive overlap d with slice b. It walks by
// slice index, so a boundary landing exactly on a slice edge cannot
// stall it.
func clipSlices(lo, hi, t0, t1, w float64, n int, add func(b int, d float64)) {
	lo, hi = max(lo, t0), min(hi, t1)
	if hi <= lo {
		return
	}
	b1 := min(int((hi-t0)/w), n-1)
	for b := int((lo - t0) / w); b <= b1; b++ {
		bs := t0 + float64(b)*w
		if d := min(hi, bs+w) - max(lo, bs); d > 0 {
			add(b, d)
		}
	}
}

// Utilization divides [t0, t1) into nbins intervals and returns, for each
// interval, the average fraction of the npe processors that were busy.
func Utilization(l *trace.Log, npe, nbins int, t0, t1 float64) []float64 {
	if t1 <= t0 || nbins <= 0 || npe <= 0 {
		return nil
	}
	out := make([]float64, nbins)
	width := (t1 - t0) / float64(nbins)
	for _, r := range l.Records {
		clipSlices(r.Start, r.End, t0, t1, width, nbins, func(b int, d float64) { out[b] += d })
	}
	for b := range out {
		out[b] /= width * float64(npe)
	}
	return out
}

// TimelineOptions controls Timeline rendering.
type TimelineOptions struct {
	PEs    []int32 // which processors, in display order
	T0, T1 float64 // window
	Width  int     // characters across (default 100)
}

// timelineLetters marks a busy timeline slice with its dominant category.
var timelineLetters = [trace.NumCategories]byte{
	trace.CatNonbonded: 'N', trace.CatBonded: 'B', trace.CatIntegration: 'I',
	trace.CatComm: 'C', trace.CatRecv: 'R', trace.CatExchange: 'X', trace.CatPME: 'P',
	trace.CatRecovery: 'V', trace.CatOther: 'o',
}

// Timeline renders an "Upshot-style" per-processor timeline (Figures 3-4):
// one row per PE, one character per time slice, with the dominant
// category's letter in busy slices (N nonbonded, B bonded, I integration,
// C comm, R recv, X exchange, P pme, V recovery,
// o other) and '.' when idle.
func Timeline(l *trace.Log, opt TimelineOptions) string {
	if opt.Width <= 0 {
		opt.Width = 100
	}
	if opt.T1-opt.T0 <= 0 {
		return ""
	}
	slice := (opt.T1 - opt.T0) / float64(opt.Width)
	var b strings.Builder
	for _, pe := range opt.PEs {
		// Busy time per category in each slice, span by span.
		busy := make([][trace.NumCategories]float64, opt.Width)
		for _, r := range l.Records {
			if r.PE != pe || r.End <= opt.T0 || r.Start >= opt.T1 {
				continue
			}
			t := r.Start
			for _, sp := range r.Spans {
				clipSlices(t, t+sp.Dur, opt.T0, opt.T1, slice, opt.Width,
					func(s int, d float64) { busy[s][sp.Cat] += d })
				t += sp.Dur
			}
		}
		fmt.Fprintf(&b, "PE%4d |", pe)
		for s := range busy {
			best, bestT, tot := trace.CatOther, 0.0, 0.0
			for c, d := range busy[s] {
				tot += d
				if d > bestT {
					best, bestT = trace.Category(c), d
				}
			}
			if tot < slice*0.25 {
				b.WriteByte('.')
			} else {
				b.WriteByte(timelineLetters[best])
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// UtilizationGantt renders the overall utilization-versus-time curve as
// an ASCII chart — the shape of the paper's Figures 5–6 Projections
// graphs. Each column is one of width time bins over [t0, t1); each of
// the height rows is a 100/height-percent utilization band, filled when
// the bin's utilization reaches it.
func UtilizationGantt(l *trace.Log, npe, width, height int, t0, t1 float64) string {
	if width <= 0 {
		width = 100
	}
	if height <= 0 {
		height = 10
	}
	util := Utilization(l, npe, width, t0, t1)
	if util == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "utilization over %d PEs, %d bins of %.6fs\n", npe, width, (t1-t0)/float64(width))
	for row := height; row >= 1; row-- {
		level := float64(row) / float64(height)
		fmt.Fprintf(&b, "%4.0f%% |", 100*level)
		for _, u := range util {
			if u >= level-1e-12 {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "      %s\n", strings.Repeat("-", width+2))
	fmt.Fprintf(&b, "      t=%-12.6f%st=%.6f\n", t0, strings.Repeat(" ", max(0, width-22)), t1)
	return b.String()
}
