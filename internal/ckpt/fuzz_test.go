package ckpt

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"gonamd/internal/xrand"
)

// The checkpoint decoders read bytes from disk that a crash, a full disk
// or a hostile user may have shaped. Both fuzz targets take either raw
// file bytes or, with reframe set, a payload that they wrap in a valid
// header and CRC, so that the fuzzer reaches the gob decoder behind the
// checksum instead of dying on it. Contract: a load errors cleanly or
// succeeds, never panics, and anything it accepts re-saves and loads back
// to the same state.

// framed wraps payload in a valid envelope header.
func framed(tag string, version uint32, payload []byte) []byte {
	hdr := header(tag, version, payload)
	return append(hdr[:], payload...)
}

// sameState reports whether a reloaded state equals the original:
// reflect.DeepEqual, or else identical gob encodings. The second form
// admits the two differences a round trip cannot preserve and DeepEqual
// cannot forgive — NaN fields (gob writes a float's bits) and an empty
// slice decoded as nil (gob writes neither).
func sameState(a, b any) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	var ea, eb bytes.Buffer
	if gob.NewEncoder(&ea).Encode(a) != nil || gob.NewEncoder(&eb).Encode(b) != nil {
		return false
	}
	return bytes.Equal(ea.Bytes(), eb.Bytes())
}

// addSeeds adds each checkpoint as raw bytes, truncated, and as a bare
// payload to be re-framed.
func addSeeds(f *testing.F, files ...[]byte) {
	for _, raw := range files {
		f.Add(raw, false)
		f.Add(raw[:len(raw)/2], false)
		f.Add(raw[32:], true)
	}
	f.Add([]byte{}, true)
}

func FuzzEnvelopeLoad(f *testing.F) {
	rng := xrand.New(99)
	var seeds [][]byte
	for _, st := range []*EnsembleState{sample(), randomState(rng), randomState(rng)} {
		var buf bytes.Buffer
		if err := Save(&buf, st); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	addSeeds(f, seeds...)
	f.Fuzz(func(t *testing.T, data []byte, reframe bool) {
		if reframe {
			data = framed(ensembleTag, Version, data)
		}
		// Load validates on top of the envelope; it may reject what the
		// envelope accepts, but never panic.
		_, _ = Load(bytes.NewReader(data))

		var st EnsembleState
		if EnvelopeLoad(bytes.NewReader(data), ensembleTag, Version, &st) != nil {
			return
		}
		var buf bytes.Buffer
		if err := EnvelopeSave(&buf, ensembleTag, Version, &st); err != nil {
			t.Fatalf("accepted state does not re-save: %v", err)
		}
		var again EnsembleState
		if err := EnvelopeLoad(&buf, ensembleTag, Version, &again); err != nil {
			t.Fatalf("re-saved state does not load: %v", err)
		}
		if !sameState(&st, &again) {
			t.Fatalf("state changed across a re-save:\n%+v\n%+v", st, again)
		}
	})
}

func FuzzLoadJob(f *testing.F) {
	// A single engine with a list anchor, PME reciprocal state and a
	// Langevin stream; an ensemble of cluster-list replicas; bare phase
	// space.
	ens := sampleJob()
	ens.Engine, ens.Ensemble = nil, sample()
	var seeds [][]byte
	for _, st := range []*JobState{sampleJob(), ens, phaseSpaceJob()} {
		var buf bytes.Buffer
		if err := SaveJob(&buf, st); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	addSeeds(f, seeds...)
	f.Fuzz(func(t *testing.T, data []byte, reframe bool) {
		if reframe {
			data = framed(jobTag, JobVersion, data)
		}
		st, err := LoadJob(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveJob(&buf, st); err != nil {
			t.Fatalf("accepted job does not re-save: %v", err)
		}
		again, err := LoadJob(&buf)
		if err != nil {
			t.Fatalf("re-saved job does not load: %v", err)
		}
		if !sameState(st, again) {
			t.Fatalf("job changed across a re-save:\n%+v\n%+v", st, again)
		}
	})
}
