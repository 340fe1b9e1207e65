# CI entry points. `make ci` is what every change should pass: vet, build,
# and the full test suite under the race detector — the ensemble scheduler
# (internal/ensemble) advances replicas on a concurrent worker pool, so
# race-checking on every change is not optional.

GO ?= go

.PHONY: all fmt-check vet build test race serve metrics chaos fuzz bench-all benchmark benchmark-compare benchmark-smoke table-accuracy profile scale docs-check ci

all: vet build test

# Fails, listing the files, when gofmt would reformat anything in the tree.
fmt-check:
	@out=$$(gofmt -l . 2>&1); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector slows the root package's ApoA-I differential
# (TestClusterTabForceAccuracyApoA1: a 92k-atom minimize plus two force
# evaluations) to ~10 min on one core, past go test's default per-binary
# timeout, so the race run gets a longer one.
race: vet
	$(GO) test -race -timeout 30m ./...

# The job-server suite: scheduler quota/fairness/lifecycle tests plus the
# HTTP end-to-end crash/restart test that proves resumed jobs produce
# byte-identical trajectories. Also runs under `race` (./...) and in the
# chaos suite below.
serve:
	$(GO) test -count=1 ./internal/serve ./cmd/gonamdd

# The telemetry suite under the race detector: the FTDC codec
# round-trip/recovery property tests and recorder concurrency tests,
# the engine-facing overhead and trajectory-invariance guards at the
# root, and the serve-layer metrics streaming/crash e2e. Also part of
# `race` (./...) and the chaos list below.
metrics: vet
	$(GO) test -race -count=1 ./internal/ftdc
	$(GO) test -race -count=1 -run 'Metrics' . ./internal/serve

# The chaos/conformance suite: fault injection, reliable delivery, and
# checkpoint recovery, run twice (-count=2) to flush out any hidden
# run-to-run nondeterminism in the seeded fault streams. The forcefield
# package carries the kernel differential tests and the root package the
# nonbonded-pipeline conformance table (TestDifferential*); the engine
# package carries the zero-allocation step table (one worker and two,
# PME real-space and reciprocal rows included); the fft and pme packages
# carry the worker-count/repeat determinism tests behind the
# bitwise-reproducible PME guarantee; the ldb package carries the
# strategy property suite (never-worsen, validity, determinism) and the
# assignment golden.
chaos:
	$(GO) test -count=2 -run 'Chaos|Crash|Reliable|Recovery|Property|Differential|Golden|Determinism|PME|ZeroAllocs' \
		./internal/converse ./internal/charm ./internal/core ./internal/ckpt ./internal/trace \
		./internal/forcefield ./internal/engine ./internal/fft ./internal/pme ./internal/projections \
		./internal/ldb ./internal/ftdc ./internal/serve .

# Short runs of the fuzz targets (one -fuzz per invocation): the
# cluster-builder geometry fuzzer, and the interaction-table fuzzer that
# drives random charge folds and the full r² domain against the
# analytic electrostatics within the cubic spline's a-priori h³ error
# bound (and the shared LJ switch against its branchy form). The property
# checks run on the seed corpora in `test`; fuzzing explores beyond
# them. FuzzFTDCDecode drives malformed telemetry streams against the
# chunked decoder: decoding must error cleanly, never panic, and
# anything it accepts must re-encode bit-exactly. FuzzTraceJSON holds
# the trace reader behind cmd/projections to the same contract: error
# cleanly, never panic, and any log it accepts re-encodes through
# WriteJSON to the same records; FuzzAnalyzeReader drives the analyzer
# behind it the same way and holds every accepted report to the trace
# reader's 65,536-PE bound (an unbounded PE index once cost gigabytes).
# FuzzEnvelopeLoad and FuzzLoadJob hold
# the checkpoint envelope behind DES snapshots, CheckpointPath files and
# gonamdd job checkpoints to the same contract, fed raw file bytes and
# payloads re-framed behind a valid header and CRC so the gob decoder is
# reached; their seeds are whole checkpoints, which the fuzzer would
# spend the run minimizing, hence the cap. FuzzSystemLoad holds sysio.Load
# — gonamdd inline topologies, molgen files — to the same contract, fed
# raw files and gob payloads it gzips itself; FuzzTrajReader holds the
# trajectory reader gonamdd runs on resume to it. FuzzJobSpec holds the
# job-spec decoder behind POST /jobs to it, with the accepted spec
# persisted and re-read the way a restarted server rescans it. Part of
# `ci` — list-building, table, and codec bugs corrupt data silently, so
# all ten get adversarial inputs on every change; TestFuzzTargetsListed
# fails when a Fuzz function in the tree is missing from this list.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzClusterPairs -fuzztime=20s ./internal/spatial
	$(GO) test -run='^$$' -fuzz=FuzzInteractionTable -fuzztime=20s ./internal/forcefield
	$(GO) test -run='^$$' -fuzz=FuzzFTDCDecode -fuzztime=20s ./internal/ftdc
	$(GO) test -run='^$$' -fuzz=FuzzTraceJSON -fuzztime=20s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzAnalyzeReader -fuzztime=20s ./internal/projections
	$(GO) test -run='^$$' -fuzz=FuzzEnvelopeLoad -fuzztime=20s -fuzzminimizetime=2s ./internal/ckpt
	$(GO) test -run='^$$' -fuzz=FuzzLoadJob -fuzztime=20s -fuzzminimizetime=2s ./internal/ckpt
	$(GO) test -run='^$$' -fuzz=FuzzSystemLoad -fuzztime=20s -fuzzminimizetime=2s ./internal/sysio
	$(GO) test -run='^$$' -fuzz=FuzzTrajReader -fuzztime=20s ./internal/traj
	$(GO) test -run='^$$' -fuzz=FuzzJobSpec -fuzztime=20s ./internal/serve

# The repository benchmark (BENCHMARK.json, benchmark/): every workload,
# untraced then traced, into a stamped result set
# (benchmark/out/results.json; see benchmark/README.md). This is the one
# perf ledger: claims are paired `-compare` runs of two result sets, e.g.
# `make benchmark-compare OLD=benchmark/baseline/set-a.json
# NEW=benchmark/out/results.json`.
benchmark:
	bash benchmark/run.sh

benchmark-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make benchmark-compare OLD=a.json NEW=b.json"; exit 2; }
	bash benchmark/run.sh -compare $(OLD) $(NEW)

# The repository benchmark (BENCHMARK.json, benchmark/) is a module of its
# own that `go test ./...` cannot see, and it compiles against internal
# APIs (fft.Mesh3, pme.Recip, the engines). Build it, run every workload
# at toy size with its correctness checks, and run the harness tests.
benchmark-smoke:
	bash benchmark/run.sh -smoke
	cd benchmark && $(GO) test ./...

# One iteration per benchmark: a quick smoke that every in-tree
# Benchmark* function still runs. They are profiling tools, not a ledger
# — run one with -benchtime/-cpuprofile while working on its layer; the
# numbers a change claims come from `make benchmark`. Includes the DES
# layer benchmarks: the converse event core (BenchmarkEventThroughput,
# events/s and allocs) and whole ApoA-I cluster simulations on
# des-scale's timing schedule
# (BenchmarkSimApoA1/{std-1,std-1024,hier+tree-1024}, internal/bench).
bench-all:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -timeout=30m ./...

# The interaction-table accuracy sweep: spacing (256 → 16,384 bins) →
# max error of the tabulated electrostatic derivative, and of a whole
# LJ + charge pair, against the analytic kernels over the physical
# separation range down into the repulsive wall. Shows the h³
# convergence of the cubic Hermite table and where the default
# resolution sits (see DESIGN.md, "Nonbonded pipeline").
table-accuracy:
	$(GO) run ./cmd/tableacc

# Projections profile of a traced benchmark run: a short mdrun with the
# parallel pipeline and a trace attached, analyzed into PROFILE.json
# (versioned gonamd-projections schema) plus the text summary on stdout.
profile: build
	$(GO) run ./cmd/mdrun -side 24 -steps 50 -workers 4 -trace PROFILE.trace.jsonl -profile
	$(GO) run ./cmd/projections -json PROFILE.trace.jsonl > PROFILE.json
	@echo "wrote PROFILE.trace.jsonl and PROFILE.json"

# The paper-scale load-balancing/multicast study: centralized
# greedy+refine with flat multicast against hierarchical LB with
# spanning-tree multicast, ApoA-I 16-1024 and BC1 16-2048 PEs, plus the
# BC1 LB before/after reports at 1024/2048. Slow (minutes): twelve
# full cluster simulations, the largest at 2048 virtual PEs.
scale:
	$(GO) run ./cmd/benchtables -scale > docs/scaletables_output.txt
	@echo "wrote docs/scaletables_output.txt"

# The checked-in paper tables and figures (docs/benchtables_output.txt:
# Tables 1-6, Figures 1-4) must be what the code prints today. The run
# (~60 s) writes its elapsed time to stderr, so stdout is byte-stable.
docs-check:
	@out=$$(mktemp) && $(GO) run ./cmd/benchtables > $$out && cmp $$out docs/benchtables_output.txt; \
		st=$$?; rm -f $$out; exit $$st

ci: fmt-check vet build race fuzz benchmark-smoke docs-check
