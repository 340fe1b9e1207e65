package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gonamd/internal/ckpt"
	"gonamd/internal/converse"
)

// baseRecoveryCfg is the shared configuration for recovery tests: the
// reliable protocol and periodic checkpoints are on for the fault-free
// reference too, so its timing is comparable like-for-like.
func baseRecoveryCfg(t *testing.T) (Config, *Workload) {
	t.Helper()
	w, model := testWorkload(t)
	return Config{
		PEs:             8,
		Model:           model,
		SplitSelf:       true,
		Reliable:        true,
		CheckpointEvery: 2,
	}, w
}

// TestCrashRecoveryReproducesStepDurations: a PE crash before the
// measured window rolls back to the last checkpoint and re-executes;
// the measured step durations must match the fault-free run to float
// rounding (the replay runs at a crash-shifted absolute virtual time).
func TestCrashRecoveryReproducesStepDurations(t *testing.T) {
	cfg, w := baseRecoveryCfg(t)

	ref, err := NewSim(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res0 := ref.Run()
	if res0.Recoveries != 0 || res0.FaultStats.Crashes != 0 {
		t.Fatalf("fault-free run reported recoveries=%d crashes=%d",
			res0.Recoveries, res0.FaultStats.Crashes)
	}

	crashed := cfg
	crashed.Faults = &converse.FaultPlan{
		Crashes: []converse.Crash{{PE: 1, At: 0.3 * res0.MeasureT0, Down: 0.05 * res0.MeasureT0}},
	}
	sim, err := NewSim(w, crashed)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()

	if res.FaultStats.Crashes != 1 || res.FaultStats.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", res.FaultStats.Crashes, res.FaultStats.Restarts)
	}
	if res.Recoveries == 0 {
		t.Fatal("crash caused no checkpoint rollback")
	}
	if res.FaultStats.Lost == 0 {
		t.Error("crash lost no messages; the plan fired after the run?")
	}
	if res.Reliable.GiveUps != 0 {
		t.Errorf("reliable layer gave up on %d sends", res.Reliable.GiveUps)
	}
	if len(res.StepDurations) != len(res0.StepDurations) {
		t.Fatalf("measured %d steps, fault-free %d", len(res.StepDurations), len(res0.StepDurations))
	}
	const tol = 1e-9
	for i, d := range res0.StepDurations {
		if diff := math.Abs(res.StepDurations[i] - d); diff > tol*math.Abs(d) {
			t.Errorf("step %d: recovered %.15g, fault-free %.15g", i, res.StepDurations[i], d)
		}
	}
}

// TestRecoveryDeterminism: the same crashed run twice is bitwise
// identical — same faults, same rollbacks, same measured durations.
func TestRecoveryDeterminism(t *testing.T) {
	cfg, w := baseRecoveryCfg(t)
	run := func() *Result {
		c := cfg
		c.Faults = &converse.FaultPlan{
			Seed:     3,
			DropProb: 0.001,
			Crashes:  []converse.Crash{{PE: 2, At: 5, Down: 1}},
		}
		s, err := NewSim(w, c)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	a, b := run(), run()
	if a.FaultStats != b.FaultStats {
		t.Errorf("fault stats differ: %+v vs %+v", a.FaultStats, b.FaultStats)
	}
	if a.Reliable != b.Reliable {
		t.Errorf("reliable stats differ: %+v vs %+v", a.Reliable, b.Reliable)
	}
	if a.Recoveries != b.Recoveries {
		t.Errorf("recoveries differ: %d vs %d", a.Recoveries, b.Recoveries)
	}
	if !reflect.DeepEqual(a.StepDurations, b.StepDurations) {
		t.Errorf("step durations differ:\n%v\n%v", a.StepDurations, b.StepDurations)
	}
}

// TestSnapshotRestoreRoundTrip: restoreState is the exact inverse of
// snapshotState, through the ckpt envelope bytes.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cfg, w := baseRecoveryCfg(t)
	s, err := NewSim(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run a couple of steps so there is nontrivial state to capture.
	s.totalSteps = 2
	s.runEpoch(2)
	before := s.snapshotState(2)
	s.saveSnapshot(2) // without a fault plan, takeSnapshot would keep only the step

	// Scribble over everything the snapshot covers.
	for _, ps := range s.patches {
		ps.step = -1
		ps.got = append(ps.got, stepCount{key: 12345, n: 9})
	}
	for _, cs := range s.computes {
		cs.work *= 3
	}
	s.stepEnd = append(s.stepEnd, 99)
	s.m.TotalMsgs = -7

	s.recover()
	after := s.snapshotState(2)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("state after recover differs from snapshot:\nbefore %+v\nafter  %+v", before, after)
	}
	if s.recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", s.recoveries)
	}
}

// TestCheckpointPathPersists: with CheckpointPath set, the snapshot is
// on disk in the ckpt envelope format and decodes to the same state.
func TestCheckpointPathPersists(t *testing.T) {
	cfg, w := baseRecoveryCfg(t)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "sim.ckpt")
	s, err := NewSim(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots happen at the epoch start and every CheckpointEvery
	// steps within it, so a 4-step epoch leaves the step-2 snapshot as
	// the last one persisted.
	s.totalSteps = 4
	s.runEpoch(4)

	f, err := os.Open(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}
	defer f.Close()
	st := &SimState{}
	if err := ckpt.EnvelopeLoad(f, simTag, simVersion, st); err != nil {
		t.Fatalf("decoding persisted checkpoint: %v", err)
	}
	if st.Step != 2 {
		t.Errorf("persisted snapshot at step %d, want 2", st.Step)
	}
	// The file must hold exactly the rollback target the sim keeps in
	// memory.
	mem := &SimState{}
	if err := ckpt.EnvelopeLoad(bytes.NewReader(s.snapBytes), simTag, simVersion, mem); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, mem) {
		t.Error("persisted snapshot differs from the in-memory rollback target")
	}
}
