package main

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {95, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// function the benchmark contract's spreads are computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "root", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 3},
		{ID: 2, Parent: 0, Name: "b", Start: 2, End: 5},  // overlaps a: [1,5] is covered once
		{ID: 3, Parent: 0, Name: "c", Start: 8, End: 12}, // clipped to the parent's end
		{ID: 4, Parent: 1, Name: "leaf", Start: 1.5, End: 2},
		{ID: 5, Parent: noSpan, Name: "root", Start: 20, End: 21}, // same name: summed
	}
	want := map[string]float64{"root": (10 - 4 - 2) + 1, "a": 2 - 0.5, "b": 3, "c": 4, "leaf": 0.5}
	got := selfTimes(spans)
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("self time of %s = %g, want %g", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want names %v", got, want)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer("w", false)
	id := tr.begin("x", noSpan)
	tr.end(id)
	if d := tr.time("y", id, func() { time.Sleep(time.Millisecond) }); d < 1e-3 {
		t.Errorf("time() = %g s, slept 1 ms", d)
	}
	if len(tr.spans) != 0 {
		t.Errorf("tracer off kept %d spans", len(tr.spans))
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v * 0.995, v, v * 1.005, v, v} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady(100), steady(101), "within bound"},
		{"slower", lower, steady(100), steady(115), "REGRESSED"},
		{"faster", lower, steady(100), steady(80), "better"},
		{"rate fell", higher, steady(100), steady(85), "REGRESSED"},
		{"rate rose", higher, steady(100), steady(120), "better"},
		{"rate within", higher, steady(100), steady(95), "within bound"},
		// A 15% worse median that the noise cannot resolve is not a pass
		// and not a regression.
		{"noisy", lower, []float64{80, 90, 100, 110, 120}, steady(115), "unresolved"},
		{"noisy same median", lower, steady(100), []float64{70, 85, 100, 115, 130}, "unresolved"},
		{"single run", lower, []float64{100}, []float64{105}, "within bound"},
		{"noisy set-up", metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}, []float64{80, 90, 100, 110, 120}, steady(105), "within bound"},
	} {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSmoke runs all four workloads at toy size, untraced and traced,
// and checks the harness: each run emits exactly the declared metric
// names of its pass, every declared metric is measured by some
// workload, no operation fails, and the parallel phase budget sums to
// 100 ± 0.5.
func TestSmoke(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			res, det, err := runWorkload(m, w.Name, 11, 400*time.Millisecond, traced, smokeSizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, det.Problems)
			}
			declared := m.EndToEnd
			if traced {
				declared = m.PerLayer
			}
			var want, got []string
			for _, d := range declared {
				want = append(want, d.Name)
			}
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(want)
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s traced=%v: emitted %q where %q is declared", w.Name, traced, got[i], want[i])
				}
			}
			for _, name := range det.Measured {
				measured[name] = true
			}
			if traced && (w.Name == "md-cutoff" || w.Name == "md-pme") {
				sum := 0.0
				for _, name := range []string{"par.nonbonded_pct", "par.bonded_pct", "par.pme_pct", "par.reduce_pct", "par.integrate_pct", "par.other_pct"} {
					sum += res.Metrics[name].Value
				}
				if math.Abs(sum-100) > 0.5 {
					t.Errorf("%s: phase budget sums to %g%%", w.Name, sum)
				}
				if pme := res.Metrics["pme.recip_par_ms"].Value; (pme > 0) != (w.Name == "md-pme") {
					t.Errorf("%s: pme.recip_par_ms = %g", w.Name, pme)
				}
			}
		}
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if runtime.NumCPU() < scaleWorkers && (d.Name == "par.speedup" || d.Name == "par.efficiency_pct") {
			continue // wall-clock scaling is omitted with fewer cores than workers
		}
		if !measured[d.Name] {
			t.Errorf("declared metric %s is measured by no workload", d.Name)
		}
	}
}

// A rebuilding step counts as the median number of plain steps it cost
// next to its neighbours, so a slow spell that covers some rebuilding
// steps does not move the quiet rate.
func TestQuietRate(t *testing.T) {
	var st stepTimes
	quietStep, slowStep := 0.010, 0.015
	for chunk := 0; chunk < 2; chunk++ {
		var c stepTimes
		for i := 0; i < 100; i++ {
			base := quietStep
			if chunk == 1 || i%3 == 0 { // the second chunk runs entirely on a busy host
				base = slowStep
			}
			if i%10 == 5 {
				c.all = append(c.all, 3*base) // a list rebuild costs two more steps
				c.ratios = append(c.ratios, 3)
				c.rebuilds++
			} else {
				c.all = append(c.all, base)
				c.plain = append(c.plain, base)
			}
			c.wall += c.all[len(c.all)-1]
		}
		st.add(c)
	}
	want := 200 / (quietStep * (180 + 20*3))
	if got := st.quietRate(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("quietRate = %g, want %g", got, want)
	}
	if got := st.rate(); got >= want {
		t.Errorf("rate %g should be below the quiet rate %g on a busy host", got, want)
	}
}

// The quiet job rate sums, over the kinds of segment, the kind's quiet
// time times its occurrences in a job.
func TestQuietJobRate(t *testing.T) {
	job := func(scale float64) []segment {
		return []segment{
			segmentBetween(mark{"running", 0, 0}, mark{"energy", 10, 0.3 * scale}),
			segmentBetween(mark{"energy", 10, 0}, mark{"energy", 20, 0.1 * scale}),
			segmentBetween(mark{"energy", 20, 0}, mark{"energy", 30, 0.1 * scale}), // the same work again
			segmentBetween(mark{"energy", 100, 0}, mark{"queued", 100, 0.05 * scale}),
		}
	}
	jobs := [][]segment{job(1.5), job(1), job(1.4)}
	jobs[1][3].secs = 0.08 // the quiet job hit a busy spell while checkpointing
	jobs[0][3].secs = 0.05 // … which another job saw quiet
	jobs[2] = jobs[2][1:]  // this one's first event came with the replay
	got, n := quietJobRate(jobs, 30)
	if want := 30 / (0.3 + 2*0.1 + 0.05); math.Abs(got-want) > 1e-9 || n != 2 {
		t.Errorf("quietJobRate = %g (n=%d), want %g (n=2)", got, n, want)
	}
	if a, b := jobs[1][1].key, jobs[1][2].key; a != b || a == jobs[1][0].key || jobs[1][3].key == "energy→queued+0" {
		t.Errorf("segment keys: %q %q %q %q", jobs[1][0].key, a, b, jobs[1][3].key)
	}
	if got, n := quietJobRate(nil, 25); got != 0 || n != 0 {
		t.Errorf("quietJobRate(nil) = %g, %d", got, n)
	}
}
