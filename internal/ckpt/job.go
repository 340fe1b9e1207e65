package ckpt

import (
	"fmt"
	"io"
	"os"

	"gonamd/internal/vec"
)

// JobVersion is the current job checkpoint format version.
const JobVersion = 1

// jobTag identifies job-server checkpoint payloads ("jsrv"), written by
// the gonamdd scheduler for every incomplete job on its checkpoint
// cadence and on graceful shutdown.
const jobTag = "jsrv"

// JobState is the complete dynamic state of one simulation job managed
// by the gonamdd job server: either a single-engine MD run (positions,
// velocities, and the thermostat noise stream) or a replica-exchange
// ensemble (the whole-ensemble snapshot). The job's spec is embedded as
// the JSON it was submitted with, so a rescan can rebuild the engine
// from the checkpoint file alone and resume bit-identically.
type JobState struct {
	ID       string // job id (matches the state-dir file names)
	SpecJSON []byte // the submitted job spec, verbatim

	Step int64 // MD steps completed

	// Precision names the numerical mode the trajectory was produced in
	// ("fp64", or "fp64-tab" when the tabulated cluster kernel was active;
	// see gonamd.EngineSpec.PrecisionMode — checkpoints from older servers
	// may carry modes that no longer exist). Trajectories are bitwise
	// reproducible within a mode but not across modes, so resume refuses
	// a mode change. Empty in checkpoints that predate the field and means
	// fp64 (gob tolerates the missing field, so JobVersion is unchanged).
	Precision string

	// Single-engine MD jobs: full phase space plus the Langevin noise
	// stream (HasThermoRNG reports whether ThermoRNG is meaningful).
	Pos, Vel     []vec.V3
	ThermoRNG    [4]uint64
	HasThermoRNG bool

	// Replica-exchange jobs snapshot the whole ensemble instead.
	Ensemble *EnsembleState
}

// Validate performs structural checks on a decoded job snapshot.
func (s *JobState) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("%w: job snapshot without id", ErrCorrupt)
	}
	if s.Step < 0 {
		return fmt.Errorf("%w: job %s at step %d", ErrCorrupt, s.ID, s.Step)
	}
	if s.Ensemble != nil {
		if len(s.Pos) != 0 || len(s.Vel) != 0 {
			return fmt.Errorf("%w: job %s has both ensemble and single-engine state", ErrCorrupt, s.ID)
		}
		return s.Ensemble.Validate()
	}
	if len(s.Pos) == 0 || len(s.Pos) != len(s.Vel) {
		return fmt.Errorf("%w: job %s has %d/%d pos/vel", ErrCorrupt, s.ID, len(s.Pos), len(s.Vel))
	}
	return nil
}

// SaveJob writes a job checkpoint in the standard envelope.
func SaveJob(w io.Writer, st *JobState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	return EnvelopeSave(w, jobTag, JobVersion, st)
}

// LoadJob reads and validates a job checkpoint written by SaveJob. Stale
// formats surface as ErrVersionMismatch, damaged bytes as ErrCorrupt or
// ErrTruncated (test with errors.Is).
func LoadJob(r io.Reader) (*JobState, error) {
	st := &JobState{}
	if err := EnvelopeLoad(r, jobTag, JobVersion, st); err != nil {
		return nil, err
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// SaveJobFile writes a job checkpoint atomically (temp file + rename).
func SaveJobFile(path string, st *JobState) error {
	return AtomicWriteFile(path, func(w io.Writer) error { return SaveJob(w, st) })
}

// LoadJobFile reads a job checkpoint from a file.
func LoadJobFile(path string) (*JobState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return LoadJob(f)
}
