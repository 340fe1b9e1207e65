// Package ckpt persists checkpoints: the complete dynamic state of an MD
// engine (EngineState), of a replica-exchange run (every replica's engine
// state plus the exchange statistics) and of a gonamdd job, in a
// versioned binary format, so an interrupted run resumes bit-for-bit
// where it left off.
//
// The on-disk layout is a fixed header followed by a gob payload
// (sysio-style encoding, but integrity-checked):
//
//	magic    [12]byte  "gonamd-ckpt\n"
//	version  uint32    little-endian, currently 2
//	length   uint64    payload byte count
//	checksum uint64    CRC-64/ECMA of the payload
//	payload  []byte    gob-encoded EnsembleState
//
// Load rejects wrong magic, unknown versions, truncated files, and
// payloads whose checksum does not match, each with a distinct error, so
// a half-written or bit-rotted checkpoint can never be silently resumed.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"gonamd/internal/vec"
)

// Version is the current ensemble checkpoint format version. Version 2
// replaced each replica's positions, velocities and noise stream by its
// engine's whole state.
const Version = 2

// ensembleTag identifies the ensemble snapshot payload; other layers
// wrap their own payloads in the same envelope under their own tags
// (e.g. internal/core's cluster-sim snapshots use "simc").
const ensembleTag = "ckpt"

var crcTable = crc64.MakeTable(crc64.ECMA)

// tagMagic derives the 12-byte file magic from a 4-character format tag.
func tagMagic(tag string) [12]byte {
	if len(tag) != 4 {
		panic(fmt.Sprintf("ckpt: format tag %q must be 4 characters", tag))
	}
	var m [12]byte
	copy(m[:], "gonamd-")
	copy(m[7:], tag)
	m[11] = '\n'
	return m
}

// Sentinel errors, wrapped with context by the load paths. Callers that
// rescan checkpoint directories (the gonamdd job server) branch on them
// with errors.Is: ErrVersionMismatch means a stale-but-intact format
// (this build cannot reinterpret it), while ErrCorrupt and ErrTruncated
// mean the bytes themselves are damaged.
var (
	ErrBadMagic        = errors.New("ckpt: not a gonamd checkpoint")
	ErrVersionMismatch = errors.New("ckpt: unsupported checkpoint version")
	ErrTruncated       = errors.New("ckpt: truncated checkpoint")
	ErrCorrupt         = errors.New("ckpt: corrupt checkpoint")
)

// EngineState is the whole dynamic state of one MD engine
// (engine.Engine.Snapshot): everything a step reads besides what the
// engine was constructed with. Restoring it into an engine built the same
// way continues the trajectory bit for bit.
type EngineState struct {
	Step     int64 // steps the engine has taken
	Pos, Vel []vec.V3

	// Anchor holds the positions the cluster pair list was last built at;
	// the deterministic list builder replays the identical list from them.
	// Empty for the list-free reference mode.
	Anchor []vec.V3

	// The PME impulse-MTS phase: the step index within the current cycle
	// and the reciprocal forces, energy and virial of the cycle's
	// evaluation. Zero and empty without PME.
	Counter    int
	RecipF     []vec.V3
	SlowEnergy float64
	SlowVirial float64

	// Thermostat names the thermostat ("" for none) and Thermo holds the
	// state it carries between steps (thermo.Thermostat.State).
	Thermostat string
	Thermo     []uint64

	// Assign maps each task to its worker; Balances counts the
	// load-balancing passes run. Measured task times are left out: they
	// are wall-clock readings, not state a step's arithmetic reads.
	Assign   []int
	Balances int
}

// Validate performs structural checks on a decoded engine snapshot; the
// engine checks the rest against itself when restoring.
func (s *EngineState) Validate() error {
	n := len(s.Pos)
	switch {
	case n == 0 || len(s.Vel) != n:
		return fmt.Errorf("%w: engine state has %d/%d pos/vel", ErrCorrupt, n, len(s.Vel))
	case s.Step < 0:
		return fmt.Errorf("%w: engine state at step %d", ErrCorrupt, s.Step)
	case len(s.Anchor) != 0 && len(s.Anchor) != n:
		return fmt.Errorf("%w: list anchor of %d positions for %d atoms", ErrCorrupt, len(s.Anchor), n)
	case s.Counter < 0:
		return fmt.Errorf("%w: MTS counter %d", ErrCorrupt, s.Counter)
	case len(s.RecipF) != 0 && len(s.RecipF) != n:
		return fmt.Errorf("%w: %d reciprocal forces for %d atoms", ErrCorrupt, len(s.RecipF), n)
	case s.Balances < 0:
		return fmt.Errorf("%w: %d load-balancing passes", ErrCorrupt, s.Balances)
	}
	return nil
}

// ReplicaState is one replica's snapshot: where it is on the ladder and
// its engine's whole state (which carries its Langevin noise stream).
type ReplicaState struct {
	Temp   float64 // ladder temperature, K
	Engine EngineState
}

// EnsembleState is a whole-ensemble snapshot: every replica plus the
// orchestrator's own state (global step count, exchange round parity,
// exchange RNG stream, and per-neighbor-pair attempt/accept counters).
type EnsembleState struct {
	Step        int64 // ensemble MD step counter
	Round       int64 // exchange rounds attempted (controls pair parity)
	ExchangeRNG [4]uint64
	Attempts    []int64 // per neighbor pair (i, i+1)
	Accepts     []int64
	Replicas    []ReplicaState
}

// Validate performs structural checks on a decoded snapshot.
func (s *EnsembleState) Validate() error {
	if len(s.Replicas) == 0 {
		return fmt.Errorf("%w: no replicas", ErrCorrupt)
	}
	n := len(s.Replicas[0].Engine.Pos)
	for i, r := range s.Replicas {
		if err := r.Engine.Validate(); err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		if len(r.Engine.Pos) != n {
			return fmt.Errorf("%w: replica %d has %d atoms, replica 0 has %d",
				ErrCorrupt, i, len(r.Engine.Pos), n)
		}
		if !(r.Temp > 0) {
			return fmt.Errorf("%w: replica %d temperature %v", ErrCorrupt, i, r.Temp)
		}
	}
	pairs := len(s.Replicas) - 1
	if len(s.Attempts) != pairs || len(s.Accepts) != pairs {
		return fmt.Errorf("%w: %d/%d attempt/accept counters for %d pairs",
			ErrCorrupt, len(s.Attempts), len(s.Accepts), pairs)
	}
	for i := range s.Attempts {
		if s.Accepts[i] < 0 || s.Attempts[i] < s.Accepts[i] {
			return fmt.Errorf("%w: pair %d accepted %d of %d attempts",
				ErrCorrupt, i, s.Accepts[i], s.Attempts[i])
		}
	}
	return nil
}

// EnvelopeSave gob-encodes v and writes it wrapped in the checkpoint
// envelope: the magic derived from the 4-character format tag, the
// format version, the payload length, and a CRC-64 of the payload. It
// is the generic half of Save, reused by other subsystems (the cluster
// simulation's recovery snapshots) so every persisted state in the
// system gets the same integrity checking.
func EnvelopeSave(w io.Writer, tag string, version uint32, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("ckpt: encoding: %w", err)
	}
	hdr := header(tag, version, payload.Bytes())
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("ckpt: writing header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("ckpt: writing payload: %w", err)
	}
	return nil
}

// header is the envelope header of payload.
func header(tag string, version uint32, payload []byte) [32]byte {
	var hdr [32]byte
	magic := tagMagic(tag)
	copy(hdr[:12], magic[:])
	binary.LittleEndian.PutUint32(hdr[12:16], version)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[24:32], crc64.Checksum(payload, crcTable))
	return hdr
}

// EnvelopeLoad reads an envelope written by EnvelopeSave with the same
// tag and version, decoding the payload into v. Wrong magic, unknown
// versions, truncation, and checksum mismatches are rejected with the
// package's sentinel errors.
func EnvelopeLoad(r io.Reader, tag string, version uint32, v any) error {
	magic := tagMagic(tag)
	var hdr [32]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if !bytes.Equal(hdr[:12], magic[:]) {
		return ErrBadMagic
	}
	if v2 := binary.LittleEndian.Uint32(hdr[12:16]); v2 != version {
		return fmt.Errorf("%w %d (this build reads version %d)", ErrVersionMismatch, v2, version)
	}
	length := binary.LittleEndian.Uint64(hdr[16:24])
	const maxPayload = 1 << 34 // 16 GiB: far above any real snapshot
	if length > maxPayload {
		return fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, length)
	}
	// Grow the buffer as the bytes arrive rather than trusting the header
	// with an allocation: a damaged length must not cost gigabytes before
	// the stream turns out to be short.
	var payload bytes.Buffer
	if n, err := io.CopyN(&payload, r, int64(length)); err != nil {
		return fmt.Errorf("%w: payload: %d of %d bytes: %v", ErrTruncated, n, length, err)
	}
	if sum := crc64.Checksum(payload.Bytes(), crcTable); sum != binary.LittleEndian.Uint64(hdr[24:32]) {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if err := gob.NewDecoder(&payload).Decode(v); err != nil {
		return fmt.Errorf("%w: decoding: %v", ErrCorrupt, err)
	}
	return nil
}

// Save writes an ensemble checkpoint.
func Save(w io.Writer, st *EnsembleState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	return EnvelopeSave(w, ensembleTag, Version, st)
}

// Load reads and validates a checkpoint written by Save.
func Load(r io.Reader) (*EnsembleState, error) {
	st := &EnsembleState{}
	if err := EnvelopeLoad(r, ensembleTag, Version, st); err != nil {
		return nil, err
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// AtomicWriteFile streams write's output to a temporary file in the
// destination directory, synced, then renamed over path, so a crash
// mid-write never destroys the previous good file.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// SaveFile writes an ensemble checkpoint atomically via AtomicWriteFile.
func SaveFile(path string, st *EnsembleState) error {
	return AtomicWriteFile(path, func(w io.Writer) error { return Save(w, st) })
}

// LoadFile reads a checkpoint from a file.
func LoadFile(path string) (*EnsembleState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return Load(f)
}
