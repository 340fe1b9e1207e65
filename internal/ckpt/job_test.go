package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gonamd/internal/vec"
	"gonamd/internal/xrand"
)

// sampleJob is a single-engine job: cluster lists, PME mid-cycle, a
// Langevin stream.
func sampleJob() *JobState {
	es := randomEngine(xrand.New(11), 5)
	es.Counter, es.RecipF = 1, es.Pos
	es.Thermostat, es.Thermo = "langevin", []uint64{1, 2, 3, 4}
	return &JobState{
		ID:        "j000001",
		SpecJSON:  []byte(`{"steps":100}`),
		Step:      40,
		Precision: "fp64-tab",
		Engine:    &es,
	}
}

// phaseSpaceJob is the bare form the codec also accepts.
func phaseSpaceJob() *JobState {
	return &JobState{
		ID:       "j000002",
		SpecJSON: []byte(`{"steps":100}`),
		Step:     40,
		Pos:      []vec.V3{{X: 1, Y: 2, Z: 3}, {X: 4, Y: 5, Z: 6}},
		Vel:      []vec.V3{{X: 0.1}, {Y: 0.2}},
	}
}

func TestJobRoundTrip(t *testing.T) {
	for _, want := range []*JobState{sampleJob(), phaseSpaceJob()} {
		var buf bytes.Buffer
		if err := SaveJob(&buf, want); err != nil {
			t.Fatal(err)
		}
		got, err := LoadJob(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestJobFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.ckpt")
	if err := SaveJobFile(path, sampleJob()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJobFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 40 {
		t.Fatalf("step = %d, want 40", got.Step)
	}
}

// TestSaveFileAtomicRoundTrip: saving over an existing checkpoint file
// replaces it whole and leaves no temporary file behind.
func TestSaveFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")
	if err := SaveJobFile(path, sampleJob()); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a later checkpoint: the old file must be replaced.
	want := sampleJob()
	want.Step = 80
	want.Engine.Step = 80
	if err := SaveJobFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJobFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("decoded checkpoint differs from saved checkpoint")
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
	if _, err := LoadJobFile(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

// TestJobLoadVersionMismatch: a structurally intact checkpoint from a
// future format version must surface as ErrVersionMismatch — the job
// server treats that as "stale format, do not resume", distinct from
// corruption.
func TestJobLoadVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := EnvelopeSave(&buf, jobTag, JobVersion+1, sampleJob()); err != nil {
		t.Fatal(err)
	}
	_, err := LoadJob(&buf)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("version mismatch must not also read as corruption: %v", err)
	}
}

// TestJobLoadCorrupt: flipping one payload byte must surface as
// ErrCorrupt (checksum mismatch), never as a version problem.
func TestJobLoadCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveJob(&buf, sampleJob()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-1] ^= 0x40
	_, err := LoadJob(bytes.NewReader(b))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("corruption must not read as a version mismatch: %v", err)
	}
}

// TestJobLoadTruncated: cutting the payload short must surface as
// ErrTruncated.
func TestJobLoadTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveJob(&buf, sampleJob()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-7]
	if _, err := LoadJob(bytes.NewReader(b)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// TestJobLoadWrongTag: an ensemble checkpoint handed to the job loader
// is not a job checkpoint at all.
func TestJobLoadWrongTag(t *testing.T) {
	var buf bytes.Buffer
	if err := EnvelopeSave(&buf, ensembleTag, Version, &EnsembleState{}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJob(&buf); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestJobValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*JobState)
	}{
		{"no id", func(s *JobState) { s.ID = "" }},
		{"negative step", func(s *JobState) { s.Step = -1 }},
		{"engine pos/vel mismatch", func(s *JobState) { s.Engine.Vel = s.Engine.Vel[:1] }},
		{"engine anchor mismatch", func(s *JobState) { s.Engine.Anchor = s.Engine.Anchor[:1] }},
		{"empty state", func(s *JobState) { s.Engine = nil }},
		{"engine and ensemble", func(s *JobState) { s.Ensemble = sample() }},
		{"engine and phase space", func(s *JobState) { s.Pos, s.Vel = s.Engine.Pos, s.Engine.Vel }},
		{"phase-space pos/vel mismatch", func(s *JobState) { s.Engine, s.Pos, s.Vel = nil, s.Engine.Pos, s.Engine.Vel[:1] }},
	}
	for _, c := range cases {
		s := sampleJob()
		c.mut(s)
		if err := s.Validate(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
}

// TestJobHeaderVersionField pins the on-disk header layout: the version
// lives at bytes 12..16 little-endian, after the 12-byte magic.
func TestJobHeaderVersionField(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveJob(&buf, sampleJob()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if got := binary.LittleEndian.Uint32(b[12:16]); got != JobVersion {
		t.Fatalf("header version = %d, want %d", got, JobVersion)
	}
	if string(b[:7]) != "gonamd-" || string(b[7:11]) != jobTag {
		t.Fatalf("magic = %q", b[:12])
	}
}
