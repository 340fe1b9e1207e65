package gonamd_test

import (
	"sync"
	"testing"
	"time"

	"gonamd"
)

// The step benchmarks run an ApoA-I-scale synthetic system: a ~92,000
// atom water box at the paper benchmark's atom count (92,224), with the
// production 9 Å cutoff. The actual ApoA1 preset is not usable here —
// its unminimized synthetic packing has steric overlaps that blow up
// within a few femtoseconds — so an equally sized water box stands in,
// briefly minimized (once, shared across benchmarks) so the dynamics
// the timer sees are thermally calm.
const (
	benchSide   = 97.3 // Å → ~92.3k atoms at water density
	benchCutoff = 9.0
	benchDt     = 0.5
)

var (
	benchOnce sync.Once
	benchSys  *gonamd.System
	benchSt   *gonamd.State // minimized; clone before use
	benchFF   *gonamd.ForceField
)

func benchSystem(b *testing.B) (*gonamd.System, *gonamd.State, *gonamd.ForceField) {
	b.Helper()
	benchOnce.Do(func() {
		sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(benchSide, 11))
		if err != nil {
			panic(err)
		}
		ff := gonamd.StandardForceField(benchCutoff)
		eng, err := gonamd.NewSequential(sys, ff, st, gonamd.WithClusterLists(4, 8))
		if err != nil {
			panic(err)
		}
		eng.Minimize(30, 0.2)
		benchSys, benchSt, benchFF = sys, st, ff
	})
	return benchSys, benchSt.Clone(), benchFF
}

// benchSteps times b.N steps of an engine whose first force evaluation
// (list build, buffer warm-up, reciprocal priming under PME) is done.
func benchSteps(b *testing.B, eng gonamd.Engine) {
	eng.Energies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(benchDt)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// One step benchmark per configuration that exists, each at the default
// geometry (4×8) and skin. They are profiling tools for the engine layer
// (run one with -cpuprofile); the numbers a change claims come from the
// repository benchmark's paired runs (benchmark/README.md).

func benchPar(b *testing.B, opts ...gonamd.Option) *gonamd.Parallel {
	sys, st, ff := benchSystem(b)
	eng, err := gonamd.NewParallel(sys, ff, st, 8, append(opts, gonamd.WithRebalanceEvery(0))...)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkStepClusterPar is the headline number: cluster pair lists,
// the analytic M×N kernel, slot-force flush into dense per-worker force
// arrays and their deterministic reduction, at 8 workers.
func BenchmarkStepClusterPar(b *testing.B) { benchSteps(b, benchPar(b)) }

// BenchmarkStepClusterParPME is the full-electrostatics configuration:
// the tabulated Ewald real-space kernel plus the reciprocal mesh sum
// (smooth PME on the worker pool) amortized over a 4-step impulse-MTS
// cycle.
func BenchmarkStepClusterParPME(b *testing.B) {
	benchSteps(b, benchPar(b, gonamd.WithPME(1.0, 3.12/benchCutoff, 4)))
}

// BenchmarkStepClusterParTraced is BenchmarkStepClusterPar with a trace
// log attached: the per-phase instrumentation must stay within 0
// allocs/step and add only marginal (≤2%) wall overhead.
func BenchmarkStepClusterParTraced(b *testing.B) {
	tlog := gonamd.NewTraceLog()
	benchSteps(b, benchPar(b, gonamd.WithTrace(tlog)))
	rep := gonamd.AnalyzeTrace(tlog, gonamd.ProjectionsOptions{})
	b.ReportMetric(rep.Utilization*100, "util%")
}

// BenchmarkStepClusterParMetrics is BenchmarkStepClusterPar with a 1 Hz
// FTDC metrics recorder attached: the telemetry contract is 0
// allocs/step and ≤2% wall overhead — publication is a handful of atomic
// word stores, and the sampler goroutine touches only its own ring.
func BenchmarkStepClusterParMetrics(b *testing.B) {
	rec := gonamd.NewMetricsRecorder(time.Second)
	defer rec.Close()
	benchSteps(b, benchPar(b, gonamd.WithMetricsRecorder(rec)))
}

// BenchmarkStepClusterSeq is the sequential engine on the same lists,
// the single-processor end of the scaling story.
func BenchmarkStepClusterSeq(b *testing.B) {
	sys, st, ff := benchSystem(b)
	eng, err := gonamd.NewSequential(sys, ff, st, gonamd.WithClusterLists(4, 8))
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, eng)
}

// BenchmarkStepReference is the list-free reference path — rebinning and
// screening every candidate pair every step through the scalar kernel —
// kept as the baseline the cluster pipeline's speedup is measured
// against.
func BenchmarkStepReference(b *testing.B) {
	sys, st, ff := benchSystem(b)
	eng, err := gonamd.NewSequential(sys, ff, st)
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, eng)
}

// BenchmarkMinimize is what every gonamdd job with "minimize": 20 pays
// before its first step, on the serve benchmark's background box (24 Å
// water, 1,383 atoms, 9 Å cutoff): engine construction plus 20
// steepest-descent iterations, on the list-free reference mode (the
// oracle) and on 4×8 cluster lists at one inline worker (what jobs, mdrun,
// ensemble and the examples run).
func BenchmarkMinimize(b *testing.B) {
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(24, 11))
	if err != nil {
		b.Fatal(err)
	}
	ff := gonamd.StandardForceField(9)
	for _, c := range []struct {
		name string
		opts []gonamd.Option
	}{{"reference", nil}, {"cluster", []gonamd.Option{gonamd.WithClusterLists(4, 8)}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := gonamd.NewSequential(sys, ff, st.Clone(), c.opts...)
				if err != nil {
					b.Fatal(err)
				}
				m.Minimize(20, 0.2)
			}
		})
	}
}
