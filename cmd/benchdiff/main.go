// Command benchdiff guards the hot path against performance regressions:
// it compares a fresh benchmark run (benchjson output) against the
// latest committed BENCH_<n>.json baseline and fails if any pinned
// benchmark regressed beyond tolerance or disappeared.
//
// Usage:
//
//	make benchdiff
//	benchdiff -new BENCH_NEW.json                      # vs latest BENCH_<n>.json
//	benchdiff -new BENCH_NEW.json -old BENCH_3.json -tol 0.05
//	benchdiff -new BENCH_NEW.json -pin 'Step' -metric steps/sec
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"strings"
)

// pinned is the named list of hot-path benchmarks that may not regress:
// the cluster step pipeline in each configuration that exists
// (sequential, parallel, parallel with metrics, parallel with PME) and
// the kernels under it, at the default geometry (4×8).
// A name only participates once both reports carry it, so pinning a
// benchmark here before the next BENCH_<n>.json lands is safe.
var pinned = []string{
	"BenchmarkStepClusterSeq",
	"BenchmarkStepClusterPar",
	"BenchmarkStepClusterParMetrics",
	"BenchmarkStepClusterParPME",
	"BenchmarkNonbondedCluster/4x8",
	"BenchmarkNonbondedClusterTab/shifted",
	"BenchmarkNonbondedClusterTab/ewald",
}

func main() {
	log.SetFlags(0)
	oldPath := flag.String("old", "", "baseline report (default: the highest BENCH_<n>.json here)")
	newPath := flag.String("new", "", "fresh report from benchjson (required)")
	pin := flag.String("pin", "", "regexp of pinned benchmarks that may not regress (default: the named hot-path list)")
	metric := flag.String("metric", "ns/op", "metric to compare")
	tol := flag.Float64("tol", 0.10, "allowed fractional regression before failing")
	flag.Parse()
	if *newPath == "" {
		log.Fatal("benchdiff: -new report is required")
	}
	if *oldPath == "" {
		p, err := latestBench(".")
		if err != nil {
			log.Fatalf("benchdiff: %v", err)
		}
		*oldPath = p
	}
	pinExpr := *pin
	if pinExpr == "" {
		pinExpr = "^(" + strings.Join(pinned, "|") + ")$"
	}
	pinRe, err := regexp.Compile(pinExpr)
	if err != nil {
		log.Fatalf("benchdiff: bad -pin: %v", err)
	}
	old, err := loadReport(*oldPath)
	if err != nil {
		log.Fatalf("benchdiff: %v", err)
	}
	fresh, err := loadReport(*newPath)
	if err != nil {
		log.Fatalf("benchdiff: %v", err)
	}

	rows, failed := compare(old, fresh, pinRe, *metric, *tol)
	if len(rows) == 0 {
		log.Fatalf("benchdiff: no benchmark in %s matches %q with metric %q", *oldPath, *pin, *metric)
	}
	fmt.Printf("baseline %s vs %s (metric %s, tolerance %.0f%%)\n",
		*oldPath, *newPath, *metric, *tol*100)
	for _, r := range rows {
		switch {
		case r.Missing:
			fmt.Printf("  FAIL %-40s missing from new run (baseline %.4g)\n", r.Name, r.Old)
		case r.Regressed:
			fmt.Printf("  FAIL %-40s %.4g -> %.4g (%+.1f%%)\n", r.Name, r.Old, r.New, r.Delta*100)
		default:
			fmt.Printf("  ok   %-40s %.4g -> %.4g (%+.1f%%)\n", r.Name, r.Old, r.New, r.Delta*100)
		}
	}
	if failed {
		fmt.Println("benchdiff: pinned benchmarks regressed")
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regressions")
}
