package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func mkReport(vals map[string]float64, metric string) *report {
	r := &report{Schema: benchSchema}
	for name, v := range vals {
		r.Benchmarks = append(r.Benchmarks, benchmark{
			Name: name, Procs: 1, Iterations: 10,
			Metrics: map[string]float64{metric: v},
		})
	}
	return r
}

func TestCompareWithinTolerance(t *testing.T) {
	old := mkReport(map[string]float64{"BenchmarkStepPar": 100, "BenchmarkStepParPME": 200}, "ns/op")
	fresh := mkReport(map[string]float64{"BenchmarkStepPar": 105, "BenchmarkStepParPME": 190}, "ns/op")
	rows, failed := compare(old, fresh, regexp.MustCompile("^BenchmarkStepPar"), "ns/op", 0.10)
	if failed {
		t.Fatalf("failed within tolerance: %+v", rows)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
}

func TestCompareRegressionFails(t *testing.T) {
	old := mkReport(map[string]float64{"BenchmarkStepPar": 100}, "ns/op")
	fresh := mkReport(map[string]float64{"BenchmarkStepPar": 125}, "ns/op")
	rows, failed := compare(old, fresh, regexp.MustCompile("^BenchmarkStepPar"), "ns/op", 0.10)
	if !failed || !rows[0].Regressed {
		t.Fatalf("25%% slowdown not flagged: %+v", rows)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	old := mkReport(map[string]float64{"BenchmarkStepPar": 100, "BenchmarkStepParPME": 200}, "ns/op")
	fresh := mkReport(map[string]float64{"BenchmarkStepPar": 100}, "ns/op")
	rows, failed := compare(old, fresh, regexp.MustCompile("^BenchmarkStepPar"), "ns/op", 0.10)
	if !failed {
		t.Fatal("vanished pinned benchmark not flagged")
	}
	var sawMissing bool
	for _, r := range rows {
		if r.Name == "BenchmarkStepParPME" && r.Missing {
			sawMissing = true
		}
	}
	if !sawMissing {
		t.Fatalf("no missing row: %+v", rows)
	}
}

func TestCompareRateMetricDirection(t *testing.T) {
	// steps/sec improves upward: dropping 25% is the regression.
	old := mkReport(map[string]float64{"BenchmarkStepPar": 1000}, "steps/sec")
	fresh := mkReport(map[string]float64{"BenchmarkStepPar": 750}, "steps/sec")
	if _, failed := compare(old, fresh, regexp.MustCompile("."), "steps/sec", 0.10); !failed {
		t.Fatal("25% rate drop not flagged")
	}
	faster := mkReport(map[string]float64{"BenchmarkStepPar": 2000}, "steps/sec")
	if rows, failed := compare(old, faster, regexp.MustCompile("."), "steps/sec", 0.10); failed {
		t.Fatalf("2x rate gain flagged as a regression: %+v", rows)
	}
}

func TestCompareUnpinnedIgnored(t *testing.T) {
	old := mkReport(map[string]float64{"BenchmarkStepPar": 100, "BenchmarkNonbondedPair": 10}, "ns/op")
	fresh := mkReport(map[string]float64{"BenchmarkStepPar": 100, "BenchmarkNonbondedPair": 50}, "ns/op")
	rows, failed := compare(old, fresh, regexp.MustCompile("^BenchmarkStepPar"), "ns/op", 0.10)
	if failed {
		t.Fatalf("unpinned 5x slowdown failed the diff: %+v", rows)
	}
	if len(rows) != 1 || rows[0].Name != "BenchmarkStepPar" {
		t.Fatalf("rows = %+v, want only the pinned benchmark", rows)
	}
}

func TestLatestBench(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_NEW.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestBench(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_10.json" {
		t.Fatalf("latest = %s, want BENCH_10.json", got)
	}
	if _, err := latestBench(t.TempDir()); err == nil {
		t.Fatal("empty dir: want an error, got a baseline")
	}
}

func TestLoadReportRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(p, []byte(`{"schema":"other/9","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(p); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestPinnedList: the named default pin list compiles to an anchored
// regexp that matches exactly the listed hot-path benchmarks and nothing
// else — in particular none of the retired configurations' names that
// BENCH_3–6.json still carry.
func TestPinnedList(t *testing.T) {
	re := regexp.MustCompile("^(" + strings.Join(pinned, "|") + ")$")
	for _, name := range []string{
		"BenchmarkStepClusterSeq",
		"BenchmarkStepClusterPar",
		"BenchmarkStepClusterParPME",
		"BenchmarkStepClusterParMetrics",
		"BenchmarkNonbondedCluster/4x8",
		"BenchmarkNonbondedClusterTab/shifted",
	} {
		if !re.MatchString(name) {
			t.Errorf("pinned benchmark %q not matched by the default pin list", name)
		}
	}
	for _, name := range []string{
		"BenchmarkMDStep",
		"BenchmarkStepPar",
		"BenchmarkStepSeq",
		"BenchmarkStepParClusterF32",
		"BenchmarkStepParClusterTabF32",
		"BenchmarkStepClusterParMetricsExtra",
		"BenchmarkNonbondedCluster/8x8",
		"BenchmarkNonbondedClusterTab/shifted/extra",
	} {
		if re.MatchString(name) {
			t.Errorf("%q unexpectedly pinned (list must stay anchored and named)", name)
		}
	}
}
