package ckpt

import (
	"bytes"
	"reflect"
	"testing"

	"gonamd/internal/vec"
	"gonamd/internal/xrand"
)

// randomState generates a structurally valid EnsembleState with random
// shape and contents, deterministically from the given stream.
func randomState(rng *xrand.RNG) *EnsembleState {
	nrep := 1 + int(rng.Uint64()%6)
	natoms := 1 + int(rng.Uint64()%40)
	st := &EnsembleState{
		Step:        int64(rng.Uint64() % 100000),
		Round:       int64(rng.Uint64() % 1000),
		ExchangeRNG: [4]uint64(xrand.New(rng.Uint64()).Words()),
	}
	for p := 0; p < nrep-1; p++ {
		att := int64(rng.Uint64() % 50)
		st.Attempts = append(st.Attempts, att)
		acc := int64(0)
		if att > 0 {
			acc = int64(rng.Uint64() % uint64(att+1))
		}
		st.Accepts = append(st.Accepts, acc)
	}
	for rep := 0; rep < nrep; rep++ {
		st.Replicas = append(st.Replicas, ReplicaState{Temp: 250 + 200*rng.Float64(), Engine: randomEngine(rng, natoms)})
	}
	return st
}

// randomEngine generates a structurally valid EngineState of natoms atoms
// on cluster lists (a list anchor and a task assignment), with PME state
// and a Langevin or rescale thermostat as the draws fall.
func randomEngine(rng *xrand.RNG, natoms int) EngineState {
	v := func() vec.V3 { return vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()) }
	es := EngineState{Step: int64(rng.Uint64() % 100000), Balances: int(rng.Uint64() % 5)}
	for i := 0; i < natoms; i++ {
		es.Pos, es.Vel, es.Anchor = append(es.Pos, v()), append(es.Vel, v()), append(es.Anchor, v())
	}
	if rng.Uint64()%2 == 0 {
		es.Counter, es.SlowEnergy, es.SlowVirial = int(rng.Uint64()%4), rng.NormFloat64(), rng.NormFloat64()
		for i := 0; i < natoms; i++ {
			es.RecipF = append(es.RecipF, v())
		}
	}
	switch rng.Uint64() % 3 {
	case 0:
		es.Thermostat, es.Thermo = "langevin", xrand.New(rng.Uint64()).Words()
	case 1:
		es.Thermostat, es.Thermo = "rescale", []uint64{rng.Uint64() % 100}
	}
	workers := 1 + rng.Uint64()%4
	for ti := uint64(0); ti < 1+rng.Uint64()%20; ti++ {
		es.Assign = append(es.Assign, int(rng.Uint64()%workers))
	}
	return es
}

// TestPropertyRoundTripBitIdentical: for many random ensembles, a
// save/load round trip restores a deeply equal state.
func TestPropertyRoundTripBitIdentical(t *testing.T) {
	rng := xrand.New(0xc0ffee)
	for trial := 0; trial < 40; trial++ {
		want := randomState(rng)
		var buf bytes.Buffer
		if err := Save(&buf, want); err != nil {
			t.Fatalf("trial %d: save: %v", trial, err)
		}
		got, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: load: %v", trial, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: round trip not identical", trial)
		}
	}
}

// TestPropertySingleByteCorruptionDetected: flipping any single byte of
// a checkpoint must make Load fail — no silent resume from a bit-rotted
// file. Every trial flips one random byte at a random offset.
func TestPropertySingleByteCorruptionDetected(t *testing.T) {
	rng := xrand.New(0xdecade)
	for trial := 0; trial < 60; trial++ {
		st := randomState(rng)
		var buf bytes.Buffer
		if err := Save(&buf, st); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		off := int(rng.Uint64() % uint64(len(raw)))
		flip := byte(1 + rng.Uint64()%255) // never zero: guarantees a change
		raw[off] ^= flip
		if _, err := Load(bytes.NewReader(raw)); err == nil {
			t.Fatalf("trial %d: corrupting byte %d of %d (xor %#x) went undetected",
				trial, off, len(raw), flip)
		}
	}
}

// TestPropertyTruncationDetected: cutting a checkpoint anywhere must
// make Load fail.
func TestPropertyTruncationDetected(t *testing.T) {
	rng := xrand.New(7)
	st := randomState(rng)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for trial := 0; trial < 40; trial++ {
		n := int(rng.Uint64() % uint64(len(raw)))
		if _, err := Load(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(raw))
		}
	}
}

// TestEnvelopeGenericRoundTrip: the generic envelope used by other
// subsystems round-trips arbitrary payloads under their own tags and
// rejects tag and version mismatches.
func TestEnvelopeGenericRoundTrip(t *testing.T) {
	type payload struct {
		A int
		B []float64
		C map[string]int
	}
	want := payload{A: 42, B: []float64{1.5, -2.25}, C: map[string]int{"x": 1}}
	var buf bytes.Buffer
	if err := EnvelopeSave(&buf, "test", 3, &want); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	var got payload
	if err := EnvelopeLoad(bytes.NewReader(raw), "test", 3, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("generic round trip: got %+v, want %+v", got, want)
	}
	if err := EnvelopeLoad(bytes.NewReader(raw), "wxyz", 3, &got); err == nil {
		t.Error("wrong tag accepted")
	}
	if err := EnvelopeLoad(bytes.NewReader(raw), "test", 4, &got); err == nil {
		t.Error("wrong version accepted")
	}
}

// TestEnvelopeTagValidation: tags must be exactly 4 characters.
func TestEnvelopeTagValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("5-character tag did not panic")
		}
	}()
	var buf bytes.Buffer
	_ = EnvelopeSave(&buf, "toolong", 1, 1)
}
