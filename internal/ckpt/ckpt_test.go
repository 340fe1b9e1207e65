package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gonamd/internal/xrand"
)

// sample builds a non-trivial snapshot with distinct values everywhere, so
// a round-trip that drops or transposes a field cannot pass: four
// cluster-list replicas, each with a list anchor, a Langevin stream and a
// task assignment.
func sample() *EnsembleState {
	rng := xrand.New(5)
	st := &EnsembleState{
		Step:        1200,
		Round:       12,
		ExchangeRNG: [4]uint64(rng.Words()),
		Attempts:    []int64{6, 6, 5},
		Accepts:     []int64{4, 2, 5},
	}
	for rep := 0; rep < 4; rep++ {
		es := randomEngine(rng, 17)
		es.Step = 1200
		es.Counter, es.RecipF, es.SlowEnergy, es.SlowVirial = 0, nil, 0, 0
		es.Thermostat, es.Thermo = "langevin", xrand.New(uint64(rep+1)).Words()
		st.Replicas = append(st.Replicas, ReplicaState{Temp: 300 + 25*float64(rep), Engine: es})
	}
	return st
}

func encode(t *testing.T, st *EnsembleState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	got, err := Load(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("decoded snapshot differs from saved snapshot")
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	full := encode(t, sample())
	// Cut mid-header, at the header boundary, and mid-payload.
	for _, n := range []int{0, 5, 31, 32, 40, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:n])); !errors.Is(err, ErrTruncated) {
			t.Errorf("truncation at %d bytes: err = %v, want ErrTruncated", n, err)
		}
	}
}

// TestLoadTrustsNoLengthBeforeReading: a damaged header claiming a
// 1 GiB payload in front of a few bytes is a truncation, found without
// allocating what the header claims.
func TestLoadTrustsNoLengthBeforeReading(t *testing.T) {
	raw := encode(t, sample())[:40]
	binary.LittleEndian.PutUint64(raw[16:24], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("loading 40 bytes allocated %d bytes", n)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	full := encode(t, sample())
	// Flip one bit in the payload: the checksum must catch it.
	for _, off := range []int{32, 100, len(full) - 1} {
		mangled := append([]byte(nil), full...)
		mangled[off] ^= 0x10
		if _, err := Load(bytes.NewReader(mangled)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bit flip at offset %d: err = %v, want ErrCorrupt", off, err)
		}
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	full := encode(t, sample())
	binary.LittleEndian.PutUint32(full[12:16], 99)
	if _, err := Load(bytes.NewReader(full)); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("version 99: err = %v, want ErrVersionMismatch", err)
	}
}

func TestLoadRejectsWrongMagic(t *testing.T) {
	full := encode(t, sample())
	copy(full[:12], "gonamd-sys!!")
	if _, err := Load(bytes.NewReader(full)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("wrong magic: err = %v, want ErrBadMagic", err)
	}
	if _, err := Load(strings.NewReader("definitely not a checkpoint file at all")); !errors.Is(err, ErrBadMagic) {
		t.Error("arbitrary bytes of header length should fail the magic check")
	}
}

func TestValidateRejectsInconsistentSnapshots(t *testing.T) {
	mut := func(f func(*EnsembleState)) *EnsembleState { s := sample(); f(s); return s }
	cases := map[string]*EnsembleState{
		"no replicas":      mut(func(s *EnsembleState) { s.Replicas = nil }),
		"pos/vel mismatch": mut(func(s *EnsembleState) { s.Replicas[1].Engine.Vel = s.Replicas[1].Engine.Vel[:3] }),
		"ragged atom counts": mut(func(s *EnsembleState) {
			e := &s.Replicas[2].Engine
			e.Pos, e.Vel, e.Anchor = e.Pos[:3], e.Vel[:3], e.Anchor[:3]
		}),
		"bad engine state":   mut(func(s *EnsembleState) { s.Replicas[3].Engine.Anchor = s.Replicas[3].Engine.Anchor[:3] }),
		"bad temperature":    mut(func(s *EnsembleState) { s.Replicas[0].Temp = -1 }),
		"counter shape":      mut(func(s *EnsembleState) { s.Attempts = s.Attempts[:1] }),
		"accepts > attempts": mut(func(s *EnsembleState) { s.Accepts[0] = s.Attempts[0] + 1 }),
	}
	for name, s := range cases {
		var buf bytes.Buffer
		if err := Save(&buf, s); err == nil {
			t.Errorf("%s: Save accepted an invalid snapshot", name)
		}
	}
}

func TestSaveFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ens.ckpt")
	want := sample()
	if err := SaveFile(path, want); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a newer snapshot: the old file must be replaced.
	want.Step = 2400
	want.Replicas[0].Engine.Step = 2400
	if err := SaveFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("decoded snapshot differs from saved snapshot")
	}
	// No temporary droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir has %d entries, want just the checkpoint", len(entries))
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

// TestEngineStateValidate: the structural rules of one engine's state,
// each broken once on an otherwise valid snapshot.
func TestEngineStateValidate(t *testing.T) {
	valid := func() *EngineState { es := randomEngine(xrand.New(3), 9); return &es }
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*EngineState)
	}{
		{"anchor shorter than pos", func(s *EngineState) { s.Anchor = s.Anchor[:8] }},
		{"anchor longer than pos", func(s *EngineState) { s.Anchor = append(s.Anchor, s.Anchor[0]) }},
		{"negative counter", func(s *EngineState) { s.Counter = -1 }},
		{"negative step", func(s *EngineState) { s.Step = -1 }},
		{"pos/vel mismatch", func(s *EngineState) { s.Vel = s.Vel[:8] }},
		{"no atoms", func(s *EngineState) { s.Pos, s.Vel, s.Anchor, s.RecipF = nil, nil, nil, nil }},
		{"reciprocal forces for other atoms", func(s *EngineState) { s.RecipF = s.Pos[:2] }},
		{"negative balances", func(s *EngineState) { s.Balances = -1 }},
	}
	for _, c := range cases {
		s := valid()
		c.mut(s)
		if err := s.Validate(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
}
