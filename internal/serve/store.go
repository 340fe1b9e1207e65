package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"gonamd/internal/ckpt"
)

// jobPath names one of a job's files in the state directory:
// <dir>/<id>.<ext> with ext one of spec.json, ckpt, traj, status.json,
// ftdc, trace.
func jobPath(dir, id, ext string) string {
	return filepath.Join(dir, id+"."+ext)
}

// persistSpec durably records the normalized spec; it is the document of
// record a rescan rebuilds the job from.
func persistSpec(j *Job) error {
	return ckpt.AtomicWriteFile(j.specPath(), func(w io.Writer) error {
		_, err := w.Write(j.specJSON)
		return err
	})
}

// rescan rebuilds the scheduler's job table from the state directory
// after a restart. Finished jobs come back as terminal records; paused
// jobs come back paused; everything else is re-enqueued, resuming from
// its checkpoint when one loads cleanly. Checkpoint failures are
// distinguished: a version mismatch means the state cannot be
// interpreted and the job fails, while corruption or truncation (a torn
// write from a crash) discards the checkpoint and restarts the job from
// step 0. The temporary files of atomic writes a crash interrupted
// (ckpt.AtomicWriteFile's <file>.tmp<digits>) are deleted: no write is in
// flight before the scheduler starts, so every such file is orphaned.
func (s *Scheduler) rescan() error {
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if isAtomicWriteTemp(e.Name()) {
			if err := os.Remove(filepath.Join(s.cfg.StateDir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			continue
		}
		if id, ok := strings.CutSuffix(e.Name(), ".spec.json"); ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		j, err := s.recoverJob(id)
		if err != nil {
			return fmt.Errorf("serve: recovering job %s: %w", id, err)
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		switch j.Status().State {
		case StateDone, StateFailed, StateCanceled:
			// Tombstone: listable, streams closed, never scheduled.
		case StatePaused:
			j.pauseF.Store(true)
		default:
			j.publishState(StateQueued, j.Status().Note)
			s.enqueueLocked(j)
		}
		j.persistStatus()
	}
	return nil
}

// isAtomicWriteTemp reports whether name is a temporary file of
// ckpt.AtomicWriteFile: a file name, ".tmp", and the decimal random
// suffix os.CreateTemp puts in place of its "*".
func isAtomicWriteTemp(name string) bool {
	i := strings.LastIndex(name, ".tmp")
	if i <= 0 || i+len(".tmp") == len(name) {
		return false
	}
	for _, r := range name[i+len(".tmp"):] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// recoverJob rebuilds one job from its on-disk spec, status, and
// checkpoint.
func (s *Scheduler) recoverJob(id string) (*Job, error) {
	specJSON, err := os.ReadFile(jobPath(s.cfg.StateDir, id, "spec.json"))
	if err != nil {
		return nil, err
	}
	var spec JobSpec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return nil, err
	}
	// The persisted spec was normalized at submission; normalizing again
	// is idempotent and revalidates it against this server's defaults.
	if err := spec.normalize(s.cfg.CheckpointEvery); err != nil {
		return nil, err
	}
	j := newJob(id, s.cfg.StateDir, spec, specJSON, s.metricsInterval())

	var prev JobStatus
	havePrev := false
	if raw, err := os.ReadFile(j.statusPath()); err == nil {
		if json.Unmarshal(raw, &prev) == nil && prev.ID == id {
			havePrev = true
		}
	}
	if havePrev {
		j.updateStatus(func(st *JobStatus) {
			st.Step = prev.Step
			st.Frames = prev.Frames
			st.Resumes = prev.Resumes
			st.Note = prev.Note
			st.Energy = prev.Energy
			st.Potentials = prev.Potentials
			st.ExchangeAttempts, st.ExchangeAccepts = prev.ExchangeAttempts, prev.ExchangeAccepts
			if !prev.SubmittedAt.IsZero() {
				st.SubmittedAt = prev.SubmittedAt
			}
			st.FinishedAt = prev.FinishedAt
			st.State = prev.State
		})
		if terminal(prev.State) {
			j.events.close()
			return j, nil
		}
	}

	// A spec of record written by an older server may name engine fields
	// that no longer exist. Dropping them would run the job in another
	// mode than it was submitted for; fail it naming the field, as the
	// HTTP submission would.
	if _, err := decodeSpec(bytes.NewReader(specJSON)); err != nil {
		j.finalizeExternal(StateFailed, fmt.Sprintf("cannot resume: spec of record: %v", err))
		return j, nil
	}

	snap, err := ckpt.LoadJobFile(j.ckptPath())
	switch {
	case err == nil:
		if snap.ID != id {
			j.finalizeExternal(StateFailed,
				fmt.Sprintf("checkpoint belongs to job %s", snap.ID))
			return j, nil
		}
		j.pendingResume = snap
		// Pre-seed the counters the snapshot will restore so that status
		// publishes between now and the first slice (rescan re-queues the
		// job, which copies j.step/j.frames into the status) report the
		// checkpoint step instead of 0. applyResume recomputes frames
		// authoritatively from the rewound trajectory.
		j.step = snap.Step
		if havePrev {
			j.frames = prev.Frames
		}
		note := fmt.Sprintf("resumed from checkpoint at step %d", snap.Step)
		j.updateStatus(func(st *JobStatus) {
			st.Resumes++
			st.Step = snap.Step
			st.Note = note
		})
	case errors.Is(err, fs.ErrNotExist):
		// Never checkpointed: starts from step 0, nothing to report.
	case errors.Is(err, ckpt.ErrVersionMismatch):
		// The bytes are intact but this server cannot interpret them;
		// restarting from step 0 would silently discard real progress, so
		// surface the incompatibility instead.
		j.finalizeExternal(StateFailed, fmt.Sprintf("cannot resume: %v", err))
	case errors.Is(err, ckpt.ErrCorrupt), errors.Is(err, ckpt.ErrTruncated), errors.Is(err, ckpt.ErrBadMagic):
		// A torn or damaged write from the crash: the checkpoint is
		// unusable but the job itself is fine. Restart it from scratch —
		// including its telemetry, which would otherwise show the old
		// attempt's samples spliced onto the rerun's.
		_ = os.Remove(j.ckptPath())
		_ = os.Remove(j.trajPath())
		_ = os.Remove(j.metricsPath())
		j.updateStatus(func(st *JobStatus) {
			st.Step = 0
			st.Frames = 0
			st.Energy = nil
			st.Potentials = nil
			st.ExchangeAttempts, st.ExchangeAccepts = nil, nil
			st.Note = fmt.Sprintf("checkpoint unreadable (%v); restarted from step 0", err)
		})
	default:
		return nil, err
	}
	return j, nil
}
