package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

const resultSchema = "gonamd-benchmark/1"

// stamp records where and on what a result set was measured.
type stamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"` // pinned to the worker count W
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
}

// workloadResult is one workload's part of a result set: every untraced
// run's end-to-end values, and the per-layer values of the traced run.
type workloadResult struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	Samples   map[string]int       `json:"samples"`
}

// resultSet is what running all workloads writes and -compare reads.
type resultSet struct {
	Schema    string                     `json:"schema"`
	Stamp     stamp                      `json:"stamp"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// Claim is what the change under measurement claims to improve.
	// Defining the benchmark claims nothing.
	Claim *string `json:"claim"`
}

func machineStamp(root string) stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: scaleWorkers, GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit,
	}
}

// child runs one workload in a subprocess of this binary, so workloads
// never share a heap, a GC history or a peak-RSS reading.
func child(m *manifest, workload string, seed uint64, seconds float64, traced, smoke bool) (*result, *detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace,
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = m.root
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	res, det := &result{}, &detail{}
	if len(lines) < 2 || json.Unmarshal(lines[len(lines)-1], res) != nil {
		return nil, nil, fmt.Errorf("%s: no result line (%v)", workload, runErr)
	}
	if raw, ok := bytes.CutPrefix(lines[len(lines)-2], []byte("detail ")); ok {
		if err := json.Unmarshal(raw, det); err != nil {
			return nil, nil, fmt.Errorf("%s: detail line: %w", workload, err)
		}
	}
	return res, det, nil // an incorrect run is reported by the caller, with its problems
}

// runAll runs every workload untraced `runs` times and once traced, each
// in its own subprocess, prints every metric by name and writes the
// result set.
func runAll(m *manifest, seed uint64, seconds float64, runs int, out string, smoke bool) error {
	if runs < 1 {
		return fmt.Errorf("-runs %d: want at least 1", runs)
	}
	if out == "" {
		out = filepath.Join(m.outDir(), "results.json")
	}
	set := &resultSet{
		Schema: resultSchema, Stamp: machineStamp(m.root), Seed: seed, Seconds: seconds, Runs: runs,
		Workloads: map[string]*workloadResult{},
	}
	fmt.Printf("machine: %d CPUs, GOMAXPROCS %d, %s %s/%s, commit %s, seed %d, %g s per run\n",
		set.Stamp.NumCPU, scaleWorkers, set.Stamp.GoVersion, set.Stamp.GOOS, set.Stamp.GOARCH, set.Stamp.Commit, seed, seconds)
	if runtime.NumCPU() < scaleWorkers {
		fmt.Printf("note: %d CPUs for %d workers — counts are reported, wall-clock scaling numbers are omitted\n", runtime.NumCPU(), scaleWorkers)
	}
	bad := 0
	for _, w := range m.Workloads {
		wr := &workloadResult{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}, Samples: map[string]int{}}
		set.Workloads[w.Name] = wr
		for pass := 0; pass <= runs; pass++ {
			traced := pass == runs
			res, det, err := child(m, w.Name, seed, seconds, traced, smoke)
			if err != nil {
				return err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if !res.Correct {
				bad++
				for _, p := range det.Problems {
					fmt.Printf("PROBLEM %s: %s\n", w.Name, p)
				}
			}
			for name, mv := range res.Metrics {
				if traced {
					wr.PerLayer[name] = mv.Value
				} else {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], mv.Value)
				}
			}
			for name, n := range det.Samples {
				if _, seen := wr.Samples[name]; !seen { // the untraced runs' counts stand
					wr.Samples[name] = n
				}
			}
		}
		fmt.Printf("\n%s — %s\n  operations attempted %d, failed %d\n", w.Name, w.Why, wr.Attempted, wr.Failed)
		for _, d := range m.EndToEnd {
			vs := wr.EndToEnd[d.Name]
			line := fmt.Sprintf("  %-34s %14.6g %-8s median of %d run(s), spread %.1f%%",
				d.Name, midMedian(vs), d.Unit, len(vs), 100*spread(vs))
			if n, ok := wr.Samples[d.Name]; ok {
				line += fmt.Sprintf(", n=%d in a run", n)
			}
			fmt.Println(line)
		}
		for _, d := range m.PerLayer {
			if v := wr.PerLayer[d.Name]; v != 0 {
				line := fmt.Sprintf("  %-34s %14.6g %-8s", d.Name, v, d.Unit)
				if n, ok := wr.Samples[d.Name]; ok {
					line += fmt.Sprintf(" n=%d", n)
				}
				fmt.Println(line)
			}
		}
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresult set written to %s\n{\"workloads\": %d, \"incorrect_runs\": %d, \"claim\": null}\n", out, len(m.Workloads), bad)
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed a correctness check", bad)
	}
	return nil
}

// exactMetrics are per-layer values computed from seeded inputs alone:
// two result sets of the same commit and seed must agree on them to the
// last digit.
var exactMetrics = map[string]bool{
	"forcefield.pairs_in_cutoff": true, "spatial.tile_slots": true, "spatial.useful_pair_pct": true,
	"pme.mesh_points": true, "ckpt.bytes": true, "traj.bytes_per_frame": true,
	"core.msgs_total": true, "core.bytes_total": true, "core.max_proxies_per_patch": true,
	"core.sim_step_s_1024": true, "core.sim_speedup_1024": true, "core.sim_speedup_hier_tree_1024": true,
	"core.lb_imbalance_pct_pass0": true, "core.lb_imbalance_pct_final": true, "core.step_err_vs_paper_pct": true,
}

// verdict applies a metric's bound to two samples of it. worse is the
// share of a's median by which b's median is worse (negative = better).
// A spread wider than the bound on either side cannot resolve a
// difference of the bound's size, so it is reported as unresolved
// rather than passed off as unchanged.
func verdict(d metricDef, a, b []float64) (v string, worse, widest float64) {
	ma, mb := midMedian(a), midMedian(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
	}
	widest = max(spread(a), spread(b))
	switch {
	// setup_s is the contract's own metric: a median of a few set-ups,
	// whose spread the driver does not judge either.
	case widest > d.Bound && d.Name != "setup_s":
		v = "unresolved"
	case worse > d.Bound:
		v = "REGRESSED"
	case worse < -d.Bound:
		v = "better"
	default:
		v = "within bound"
	}
	return v, worse, widest
}

func loadResultSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(raw, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if set.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, set.Schema, resultSchema)
	}
	return set, nil
}

// compareFiles prints one row per end-to-end metric × workload with the
// bound of BENCHMARK.json applied, then the exact per-layer values that
// differ. It fails when a row regressed, is unresolved, or an exact
// value differs.
func compareFiles(m *manifest, pathA, pathB string) error {
	a, err := loadResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A: %s  commit %s  %d CPUs  %s  seed %d  %d run(s)\n", pathA, a.Stamp.Commit, a.Stamp.NumCPU, a.Stamp.GoVersion, a.Seed, a.Runs)
	fmt.Printf("B: %s  commit %s  %d CPUs  %s  seed %d  %d run(s)\n", pathB, b.Stamp.Commit, b.Stamp.NumCPU, b.Stamp.GoVersion, b.Seed, b.Runs)
	fmt.Printf("%-11s %-16s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	failing := 0
	for _, w := range m.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from a result set", w.Name)
		}
		for _, d := range m.EndToEnd {
			v, worse, widest := verdict(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name])
			if v == "REGRESSED" || v == "unresolved" {
				failing++
			}
			fmt.Printf("%-11s %-16s %12.5g %12.5g %+7.1f%% %7.1f%% %6.0f%%  %s\n", w.Name, d.Name,
				midMedian(wa.EndToEnd[d.Name]), midMedian(wb.EndToEnd[d.Name]), 100*worse, 100*widest, 100*d.Bound, v)
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			failing++
			fmt.Printf("%-11s failed operations: A %d of %d, B %d of %d\n", w.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
		for _, d := range m.PerLayer {
			if exactMetrics[d.Name] && a.Seed == b.Seed && wa.PerLayer[d.Name] != wb.PerLayer[d.Name] {
				failing++
				fmt.Printf("%-11s %-34s differs: %v vs %v (must repeat exactly)\n", w.Name, d.Name, wa.PerLayer[d.Name], wb.PerLayer[d.Name])
			}
		}
	}
	if failing > 0 {
		return fmt.Errorf("%d row(s) regressed, unresolved or not repeating", failing)
	}
	fmt.Println("every end-to-end metric is within its bound on every workload; exact values repeat")
	return nil
}
