package ensemble

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"gonamd/internal/ckpt"
	"gonamd/internal/engine"
	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/topology"
	"gonamd/internal/trace"
	"gonamd/internal/vec"
)

// buildRelaxed builds a system and relaxes the packed initial
// configuration enough for stable dynamics.
func buildRelaxed(t testing.TB, spec molgen.Spec, cutoff float64, minSteps int) (*topology.System, *forcefield.Params, *topology.State) {
	t.Helper()
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(cutoff)
	eng, err := engine.New(sys, ff, st, engine.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Minimize(minSteps, 0.2)
	return sys, ff, st
}

func waterEnsembleInputs(t testing.TB) (*topology.System, *forcefield.Params, *topology.State) {
	return buildRelaxed(t, molgen.WaterBox(12, 11), 6.0, 30)
}

// statesEqual reports bitwise equality of two replicas' phase space.
func statesEqual(a, b *topology.State) bool {
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] {
			return false
		}
	}
	return true
}

func ensemblesEqual(t *testing.T, a, b *Ensemble) {
	t.Helper()
	if a.Step() != b.Step() {
		t.Fatalf("step counters differ: %d vs %d", a.Step(), b.Step())
	}
	for i := 0; i < a.NumReplicas(); i++ {
		if !statesEqual(a.Replica(i).State(), b.Replica(i).State()) {
			t.Errorf("replica %d phase space differs bitwise", i)
		}
		if a.Replica(i).Steps() != b.Replica(i).Steps() {
			t.Errorf("replica %d step counts differ", i)
		}
	}
	aAtt, aAcc := a.ExchangeCounts()
	bAtt, bAcc := b.ExchangeCounts()
	for i := range aAtt {
		if aAtt[i] != bAtt[i] || aAcc[i] != bAcc[i] {
			t.Errorf("pair %d exchange counters differ: %d/%d vs %d/%d",
				i, aAcc[i], aAtt[i], bAcc[i], bAtt[i])
		}
	}
}

func TestGeometricLadder(t *testing.T) {
	l := GeometricLadder(300, 600, 5)
	if len(l) != 5 || l[0] != 300 || l[4] != 600 {
		t.Fatalf("ladder endpoints wrong: %v", l)
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("ladder not increasing: %v", l)
		}
		r0, r1 := l[1]/l[0], l[i]/l[i-1]
		if math.Abs(r1-r0) > 1e-12 {
			t.Errorf("ladder not geometric: ratios %v vs %v", r0, r1)
		}
	}
	if one := GeometricLadder(350, 500, 1); len(one) != 1 || one[0] != 350 {
		t.Errorf("single-rung ladder: %v", one)
	}
	if GeometricLadder(300, 400, 0) != nil {
		t.Error("zero-rung ladder should be nil")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	sys, ff, st := waterEnsembleInputs(t)
	bad := []Config{
		{},                             // empty ladder
		{Temperatures: []float64{-10}}, // negative rung
		{Temperatures: []float64{300, 0}},
		{Temperatures: []float64{300}, Dt: -1},
		{Temperatures: []float64{300}, CheckpointEvery: 10}, // no path
	}
	for i, cfg := range bad {
		if _, err := New(sys, ff, st, cfg); err == nil {
			t.Errorf("config %d: New accepted invalid config %+v", i, cfg)
		}
	}
}

// TestDeterministicAcrossRepeats runs the same ensemble twice from the
// same inputs and requires bitwise-identical phase space and exchange
// statistics, independent of worker-pool scheduling.
func TestDeterministicAcrossRepeats(t *testing.T) {
	sys, ff, st := waterEnsembleInputs(t)
	cfg := Config{
		Temperatures:  GeometricLadder(300, 420, 3),
		Dt:            0.5,
		ExchangeEvery: 10,
		Seed:          42,
		Workers:       3,
	}
	run := func() *Ensemble {
		e, err := New(sys, ff, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(60); err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := run(), run()
	att, _ := a.ExchangeCounts()
	total := int64(0)
	for _, n := range att {
		total += n
	}
	if total == 0 {
		t.Fatal("no exchanges attempted in 60 steps with ExchangeEvery=10")
	}
	ensemblesEqual(t, a, b)
}

// TestBRScaleKillAndResume is the acceptance scenario: a 4-replica
// bR-scale ensemble is deterministic across repeats, survives a
// kill-and-resume from a checkpoint with bitwise-identical final state,
// and reports exchange acceptance rates in [0, 1] through the trace layer.
func TestBRScaleKillAndResume(t *testing.T) {
	sys, ff, st := buildRelaxed(t, molgen.BR(), 8.0, 20)
	log := trace.NewLog()
	cfg := Config{
		Temperatures:  GeometricLadder(300, 400, 4),
		Dt:            0.5,
		ExchangeEvery: 5,
		Seed:          7,
		Trace:         log,
	}

	// Reference: one uninterrupted 20-step run.
	ref, err := New(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(20); err != nil {
		t.Fatal(err)
	}

	// Interrupted: 10 steps, checkpoint, "kill" (drop the ensemble),
	// rebuild from the same inputs, resume, 10 more steps.
	half, err := New(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := half.Run(10); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := half.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	half = nil

	resumed, err := New(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Resume(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if resumed.Step() != 10 {
		t.Fatalf("resumed at step %d, want 10", resumed.Step())
	}
	if err := resumed.Run(10); err != nil {
		t.Fatal(err)
	}
	ensemblesEqual(t, ref, resumed)

	// Acceptance rates, both directly and via the trace layer.
	direct := ref.AcceptanceRates()
	fromTrace := AcceptanceRatesFromTrace(log, ref.NumReplicas()-1)
	att, _ := ref.ExchangeCounts()
	for i, rate := range direct {
		if rate < 0 || rate > 1 {
			t.Errorf("pair %d acceptance rate %v outside [0, 1]", i, rate)
		}
		if att[i] == 0 {
			t.Errorf("pair %d never attempted an exchange", i)
		}
	}
	// The trace log accumulated records from ref + half + resumed, all
	// statistically identical runs; rates stay within [0, 1] and pairs
	// attempted in ref must appear in the log too.
	for i, rate := range fromTrace {
		if rate < 0 || rate > 1 {
			t.Errorf("trace-derived pair %d acceptance rate %v outside [0, 1]", i, rate)
		}
	}

	// Trace carries per-replica step timing for every rung.
	seen := map[int32]bool{}
	for _, r := range log.Records {
		if r.Entry == "replica.advance" {
			seen[r.PE] = true
			if r.End < r.Start {
				t.Errorf("replica.advance record with End < Start")
			}
		}
	}
	for i := 0; i < ref.NumReplicas(); i++ {
		if !seen[int32(i)] {
			t.Errorf("no replica.advance trace record for replica %d", i)
		}
	}
}

// TestResumeMidInterval checkpoints at a step that is not an exchange
// boundary and requires the continued run to match the uninterrupted one.
func TestResumeMidInterval(t *testing.T) {
	sys, ff, st := waterEnsembleInputs(t)
	cfg := Config{
		Temperatures:  GeometricLadder(300, 360, 2),
		ExchangeEvery: 10,
		Seed:          3,
	}
	ref, err := New(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(34); err != nil {
		t.Fatal(err)
	}

	partial, err := New(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.Run(17); err != nil { // mid exchange interval
		t.Fatal(err)
	}
	resumed, err := New(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(partial.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(17); err != nil {
		t.Fatal(err)
	}
	ensemblesEqual(t, ref, resumed)
}

// TestDeterministicWithParEngine exercises the per-replica parallel
// engine: its deterministic force reduction must keep ensembles
// bit-reproducible too.
func TestDeterministicWithParEngine(t *testing.T) {
	sys, ff, st := waterEnsembleInputs(t)
	cfg := Config{
		Temperatures:  GeometricLadder(300, 360, 2),
		ExchangeEvery: 5,
		Seed:          19,
		EngineWorkers: 2,
	}
	run := func() *Ensemble {
		e, err := New(sys, ff, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(20); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ensemblesEqual(t, run(), run())
}

// TestPeriodicCheckpointFiles verifies the CheckpointEvery cadence writes
// a resumable file.
func TestPeriodicCheckpointFiles(t *testing.T) {
	sys, ff, st := waterEnsembleInputs(t)
	path := t.TempDir() + "/ens.ckpt"
	cfg := Config{
		Temperatures:    GeometricLadder(300, 360, 2),
		ExchangeEvery:   10,
		Seed:            5,
		CheckpointEvery: 20,
		CheckpointPath:  path,
	}
	e, err := New(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(40); err != nil {
		t.Fatal(err)
	}
	resumed, err := New(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := resumed.Resume(f); err != nil {
		t.Fatal(err)
	}
	if resumed.Step() != 40 {
		t.Errorf("periodic checkpoint at step %d, want 40", resumed.Step())
	}
	ensemblesEqual(t, e, resumed)
}

// TestRestoreRejectsMismatches ensures a checkpoint cannot be applied to
// the wrong ensemble.
func TestRestoreRejectsMismatches(t *testing.T) {
	sys, ff, st := waterEnsembleInputs(t)
	cfg := Config{Temperatures: GeometricLadder(300, 360, 2), Seed: 1}
	e, err := New(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()

	other, err := New(sys, ff, st, Config{Temperatures: GeometricLadder(300, 360, 3), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Error("Restore accepted a checkpoint with the wrong replica count")
	}
	other2, err := New(sys, ff, st, Config{Temperatures: GeometricLadder(310, 360, 2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := other2.Restore(snap); err == nil {
		t.Error("Restore accepted a checkpoint with a different ladder")
	}
}

// TestRunStopsOnDivergedReplica: a replica whose step fails stops the
// run, and Run reports the lowest-index failing replica whatever order
// the pool finished them in. Replicas 1 and 2 start with two oxygens
// 1e-60 Å apart, whose Lennard-Jones energy overflows.
func TestRunStopsOnDivergedReplica(t *testing.T) {
	sys, ff, st := waterEnsembleInputs(t)
	ens, err := New(sys, ff, st, Config{Temperatures: GeometricLadder(300, 330, 3), ExchangeEvery: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ens.Close()
	for _, i := range []int{1, 2} {
		r := ens.Replica(i)
		r.State().Pos[0], r.State().Pos[3] = vec.New(1e-60, 5, 5), vec.New(0, 5, 5)
		r.eng.Invalidate()
	}
	err = ens.Run(40)
	if err == nil || !strings.Contains(err.Error(), "replica 1:") || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Run = %v, want replica 1's non-finite energy error", err)
	}
	if ens.Step() != 0 {
		t.Errorf("ensemble counted %d steps past a failed one", ens.Step())
	}
}

// TestReplicasRunClusterLists: every replica steps on cluster lists, at
// one worker as at two, so its snapshot carries a list anchor.
func TestReplicasRunClusterLists(t *testing.T) {
	sys, ff, st := waterEnsembleInputs(t)
	for _, w := range []int{1, 2} {
		e, err := New(sys, ff, st, Config{Temperatures: GeometricLadder(300, 330, 2), Seed: 1, EngineWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		for i, r := range e.Snapshot().Replicas {
			if len(r.Engine.Anchor) != sys.N() {
				t.Errorf("%d engine workers: replica %d has a list anchor of %d positions, want %d", w, i, len(r.Engine.Anchor), sys.N())
			}
		}
		e.Close()
	}
}

// TestResumeRejectsVersion1: a checkpoint in the format before engine
// state (positions, velocities and a noise stream per replica) is
// refused with ErrVersionMismatch naming its version, not misread.
func TestResumeRejectsVersion1(t *testing.T) {
	sys, ff, st := waterEnsembleInputs(t)
	e, err := New(sys, ff, st, Config{Temperatures: GeometricLadder(300, 330, 2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type v1Replica struct {
		Temp      float64
		Steps     int64
		Pos, Vel  []vec.V3
		ThermoRNG [4]uint64
	}
	type v1Ensemble struct {
		Step, Round       int64
		ExchangeRNG       [4]uint64
		Attempts, Accepts []int64
		Replicas          []v1Replica
	}
	old := v1Ensemble{Attempts: []int64{0}, Accepts: []int64{0}}
	for i := 0; i < e.NumReplicas(); i++ {
		r := e.Replica(i)
		old.Replicas = append(old.Replicas, v1Replica{Temp: r.Temp, Pos: r.State().Pos, Vel: r.State().Vel, ThermoRNG: [4]uint64{1, 2, 3, 4}})
	}
	var buf bytes.Buffer
	if err := ckpt.EnvelopeSave(&buf, "ckpt", 1, &old); err != nil {
		t.Fatal(err)
	}
	err = e.Resume(&buf)
	if !errors.Is(err, ckpt.ErrVersionMismatch) || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("Resume of a version-1 checkpoint = %v, want ErrVersionMismatch naming version 1", err)
	}
}
