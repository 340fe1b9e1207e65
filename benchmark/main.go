// Command benchmark is the repository's performance ledger: four
// workloads (md-cutoff, md-pme, serve-jobs, des-scale) measured from
// outside by timing calls into each layer's public functions. See
// README.md for the metric tables and how to run, trace and compare.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// gateWorkers is the worker count behind every gated number: one,
// because the sandbox's second virtual CPU is not a dependable core (see
// README.md, "Noise"). scaleWorkers is W, the count the traced pass
// measures scaling at; GOMAXPROCS is pinned to it so a larger machine
// does not change what is measured.
const (
	gateWorkers  = 1
	scaleWorkers = 2
)

// metricDef is one declared metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json: the single declaration of workload names,
// metric names, units and bounds. The program reads it rather than
// repeating it, so a metric cannot be emitted under an undeclared name.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`

	root string // directory BENCHMARK.json was found in
}

// loadManifest finds BENCHMARK.json in the working directory or its
// parent (the benchmark's own directory, where its tests run).
func loadManifest() (*manifest, error) {
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		m := &manifest{}
		if err := json.Unmarshal(raw, m); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		if m.root, err = filepath.Abs(dir); err != nil {
			return nil, err
		}
		return m, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..; run from the repository root")
}

func (m *manifest) outDir() string { return filepath.Join(m.root, "benchmark", "out") }

func (m *manifest) hasWorkload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// run is the state of one workload run: its inputs, the values it
// measured and its operation accounting.
type run struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	sz      sizes
	outDir  string
	tr      *tracer

	values    map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	problems  []string
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// setN records a value together with the number of samples behind it.
func (r *run) setN(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// fail counts n failed operations (0 for a failed check that is not an
// operation of its own; the run is then incorrect all the same).
func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setups is how many times the run sets up: three untraced, so that
// setup_s is a median; once traced, where set-up is only decomposed.
func (r *run) setups() int {
	if r.traced {
		return 1
	}
	return r.sz.setupReps
}

// window splits the run's measuring time: share is the fraction of
// --seconds this phase may use.
func (r *run) window(share float64) time.Duration {
	return time.Duration(float64(r.seconds) * share)
}

var workloadFuncs = map[string]func(*run) error{
	"md-cutoff":  func(r *run) error { return runMD(r, false) },
	"md-pme":     func(r *run) error { return runMD(r, true) },
	"serve-jobs": runServe,
	"des-scale":  runDES,
}

// metricValue is the wire form of one metric in a run's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is printed on the line before the result: what the fixed
// result shape has no room for.
type detail struct {
	Samples  map[string]int `json:"samples"`
	Measured []string       `json:"measured"` // every metric the workload set, declared for this pass or not
	Problems []string       `json:"problems,omitempty"`
}

// runWorkload executes one workload and assembles its result: every
// declared end-to-end metric for an untraced run, every declared
// per-layer metric for a traced one. A per-layer metric of a layer the
// workload does not exercise reads 0.
func runWorkload(m *manifest, name string, seed uint64, seconds time.Duration, traced bool, sz sizes) (*result, *detail, error) {
	fn, ok := workloadFuncs[name]
	if !ok || !m.hasWorkload(name) {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(scaleWorkers))
	r := &run{
		seed: seed, seconds: seconds, traced: traced, sz: sz,
		outDir: m.outDir(), tr: newTracer(name, traced),
		values: map[string]float64{}, samples: map[string]int{},
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := fn(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	r.set("peak_rss_mb", peakRSSMiB())
	if traced {
		if err := r.tr.write(filepath.Join(r.outDir, "trace-"+name+".jsonl")); err != nil {
			return nil, nil, err
		}
		printSelfTimes(r.tr.spans)
	}

	declared := m.EndToEnd
	if traced {
		declared = m.PerLayer
	}
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	for _, d := range m.EndToEnd {
		known[d.Name] = true
	}
	for _, d := range m.PerLayer {
		known[d.Name] = true
	}
	measured := make([]string, 0, len(r.values))
	for name := range r.values {
		measured = append(measured, name)
		if !known[name] {
			r.fail(0, "metric %q is measured but not declared in BENCHMARK.json", name)
		}
	}
	sort.Strings(measured)
	for _, d := range declared {
		v := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(0, "metric %s is not finite", d.Name)
			v = 0
		}
		if !traced && v == 0 {
			r.fail(0, "end-to-end metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		r.fail(0, "no operation was attempted")
		res.Attempted = 1
	}
	res.Correct = len(r.problems) == 0
	return res, &detail{Samples: r.samples, Measured: measured, Problems: r.problems}, nil
}

// printSelfTimes lists the span names that account for most of the
// traced run: each one's self time, its children's share taken out.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("  self time by span (s), largest first:")
	for _, name := range names[:min(10, len(names))] {
		fmt.Printf("    %-36s %10.3f\n", name, self[name])
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// printRun writes a run's metrics by name with unit and sample count,
// then the detail line, then the result line.
func printRun(name string, traced bool, res *result, det *detail) error {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	fmt.Printf("workload %s (%s): attempted %d, failed %d, correct %v\n", name, pass, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := res.Metrics[n]
		line := fmt.Sprintf("  %-36s %16.6g %s", n, mv.Value, mv.Unit)
		if c, ok := det.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Println(line)
	}
	for _, p := range det.Problems {
		fmt.Println("  PROBLEM:", p)
	}
	dj, err := json.Marshal(det)
	if err != nil {
		return err
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("detail %s\n%s\n", dj, rj)
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (md-cutoff, md-pme, serve-jobs, des-scale); empty runs all, untraced then traced")
		seed     = flag.Uint64("seed", 11, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "measuring time of one run (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics, spans written to benchmark/out/")
		runs     = flag.Int("runs", 1, "untraced runs per workload when running all workloads")
		out      = flag.String("out", "", "result-set file when running all workloads (default benchmark/out/results.json)")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		smoke    = flag.Bool("smoke", false, "toy sizes, for a quick check of the harness (numbers mean nothing)")
	)
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *trace, *runs, *out, *compare, *smoke, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed uint64, seconds float64, trace, runs int, out string, compare, smoke bool, args []string) error {
	m, err := loadManifest()
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("-compare needs two result-set files")
		}
		return compareFiles(m, args[0], args[1])
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if seconds == 0 {
		seconds = float64(m.RunSeconds)
	}
	sz := fullSizes
	if smoke {
		sz = smokeSizes
	}
	dur := time.Duration(seconds * float64(time.Second))
	if workload == "" {
		return runAll(m, seed, seconds, runs, out, smoke)
	}
	res, det, err := runWorkload(m, workload, seed, dur, trace == 1, sz)
	if err != nil {
		return err
	}
	if err := printRun(workload, trace == 1, res, det); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or a check did not hold", workload, res.Failed, res.Attempted)
	}
	return nil
}
