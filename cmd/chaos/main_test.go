package main

import "testing"

// TestChaosEnsembleMode runs the ensemble mode at its flag defaults:
// a run abandoned between checkpoints, restored from the last one, must
// end bit-identical to the run that never failed.
func TestChaosEnsembleMode(t *testing.T) {
	if err := runEnsemble(*seed, *crashAt, *steps, *replicas, *side, *exchange, *ckptEvery, false); err != nil {
		t.Fatal(err)
	}
}

// TestChaosMachineMode runs the machine mode on 8 PEs with a
// crash-only fault plan: the rolled-back run's measured step durations
// must match the fault-free run's.
func TestChaosMachineMode(t *testing.T) {
	if err := runMachine(*seed, 8, 0, 0, 0, nil, false); err != nil {
		t.Fatal(err)
	}
}
