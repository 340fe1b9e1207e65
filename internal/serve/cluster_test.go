package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"gonamd"
	"gonamd/internal/ckpt"
)

// clusterSpecs are the jobs of the cluster-list e2e test: one inline
// worker and a pool of two on explicit geometries, the pool with full
// electrostatics (the tabulated kernel), and one inline worker stepping
// under SHAKE/RATTLE constraints. A pool with no cluster fields rides in
// e2eSpecs.
func clusterSpecs() []JobSpec {
	base := JobSpec{
		System:          SystemSpec{Preset: "water", Side: 10, Seed: 7, Cutoff: 4.5},
		Steps:           4000,
		Dt:              0.5,
		FrameEvery:      20,
		EnergyEvery:     20,
		CheckpointEvery: 40,
	}
	seq := base
	seq.Name = "seq-cluster"
	seq.Engine = gonamd.EngineSpec{ClusterM: 4, ClusterN: 8}

	par := base
	par.Name = "par-cluster"
	par.Engine = gonamd.EngineSpec{Engine: "parallel", Workers: 2, ClusterM: 4, ClusterN: 4}

	pme := base
	pme.Name = "par-cluster-pme"
	pme.Engine = gonamd.EngineSpec{Engine: "parallel", Workers: 2, ClusterM: 4, ClusterN: 8,
		PME: &gonamd.PMESpec{GridSpacing: 1, MTSPeriod: 2}}
	shake := base
	shake.Name = "seq-cluster-shake"
	shake.Dt = 2
	shake.Engine = gonamd.EngineSpec{ClusterM: 4, ClusterN: 8, HBondConstraints: true}
	return []JobSpec{seq, par, pme, shake}
}

// TestClusterJobsCrashRestartResume: jobs on cluster lists are admitted
// over HTTP, survive a server kill, and resume bit-identically — each
// final trajectory is byte-for-byte an uninterrupted run of the same
// spec. This is the sharpest determinism claim the cluster path makes: a
// Verlet list carries history (forces depend on where the active list
// was built), so byte-equality only holds because the server rebases
// list-mode engines on every checkpoint.
func TestClusterJobsCrashRestartResume(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Workers: 1, TenantQuota: 2, SliceSteps: 25, CheckpointEvery: 40}

	sched1, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewServer(sched1))

	specs := clusterSpecs()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st := postJob(t, srv1.URL, spec)
		ids[i] = st.ID
		if st.State != StateQueued && st.State != StateRunning {
			t.Fatalf("job %s submitted in state %q", st.ID, st.State)
		}
	}

	// Let every job get a durable checkpoint, then crash the server.
	waitFor(t, "all cluster jobs past a checkpoint", func() bool {
		for _, id := range ids {
			if getStatus(t, srv1.URL, id).Step < 50 {
				return false
			}
		}
		return true
	})
	sched1.Kill()
	srv1.Close()
	for _, id := range ids {
		j, _ := sched1.Get(id)
		if st := j.Status(); terminal(st.State) {
			t.Fatalf("job %s already %s before the crash; raise Steps", id, st.State)
		}
	}

	sched2, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched2.Stop()
	srv2 := httptest.NewServer(NewServer(sched2))
	defer srv2.Close()

	for i, id := range ids {
		waitFor(t, id+" to finish after restart", func() bool {
			return getStatus(t, srv2.URL, id).State == StateDone
		})
		st := getStatus(t, srv2.URL, id)
		if st.Resumes != 1 {
			t.Errorf("job %s Resumes = %d, want 1", id, st.Resumes)
		}
		if st.Step != specs[i].Steps {
			t.Errorf("job %s finished at step %d, want %d", id, st.Step, specs[i].Steps)
		}
		got := getTrajectory(t, srv2.URL, id)
		want := referenceTrajectory(t, specs[i])
		if !bytes.Equal(got, want) {
			t.Errorf("job %s (%s): resumed trajectory differs from uninterrupted run (%d vs %d bytes)",
				id, specs[i].Name, len(got), len(want))
		}
	}
}

// TestRetiredModesFailLoudly: state left by a server from before the
// nonbonded pipeline collapsed to one path must never resume in a
// different numerical mode. A checkpoint recorded in a mode the spec no
// longer selects — the float32 path that no longer exists, or "fp64" for
// a cluster + PME job whose kernel is now tabulated — fails the job with
// the mode-mismatch note naming both modes; a spec of record naming a
// removed engine field fails it naming the field.
func TestRetiredModesFailLoudly(t *testing.T) {
	pme := &gonamd.PMESpec{GridSpacing: 1}
	cases := []struct {
		name   string
		engine gonamd.EngineSpec
		tamper func(t *testing.T, dir, id string)
		notes  []string
	}{
		{"fp32-mixed checkpoint", gonamd.EngineSpec{ClusterM: 4, ClusterN: 4},
			setCheckpointMode("fp32-mixed"), []string{"precision mode", "fp32-mixed", "fp64"}},
		{"analytic cluster+PME checkpoint", gonamd.EngineSpec{ClusterM: 4, ClusterN: 4, PME: pme},
			setCheckpointMode("fp64"), []string{"precision mode", "fp64-tab"}},
		{"removed field in the spec of record", gonamd.EngineSpec{ClusterM: 4, ClusterN: 4},
			func(t *testing.T, dir, id string) {
				path := jobPath(dir, id, "spec.json")
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw = bytes.Replace(raw, []byte(`"cluster_m"`), []byte(`"mixed_precision":true,"cluster_m"`), 1)
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}, []string{"spec of record", "mixed_precision"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{StateDir: dir, Workers: 1, SliceSteps: 25, CheckpointEvery: 40}
			s := newTestScheduler(t, cfg)
			spec := waterJob(4000)
			spec.Engine = c.engine
			st, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "a durable checkpoint", func() bool {
				_, err := os.Stat(jobPath(dir, st.ID, "ckpt"))
				return err == nil
			})
			s.Kill()
			c.tamper(t, dir, st.ID)

			s2 := newTestScheduler(t, cfg)
			defer s2.Stop()
			got := waitState(t, s2, st.ID, StateFailed)
			for _, want := range c.notes {
				if !strings.Contains(got.Note, want) {
					t.Errorf("failure note %q does not mention %q", got.Note, want)
				}
			}
		})
	}
}

// setCheckpointMode rewrites the precision mode a job's checkpoint
// records, standing in for a checkpoint an older server wrote.
func setCheckpointMode(mode string) func(t *testing.T, dir, id string) {
	return func(t *testing.T, dir, id string) {
		path := jobPath(dir, id, "ckpt")
		snap, err := ckpt.LoadJobFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap.Precision = mode
		if err := ckpt.SaveJobFile(path, snap); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitRejectsRemovedEngineFields pins the strict decoder: a job
// naming an engine field that no longer exists is a 400 that names the
// field, not a job that runs in some other mode.
func TestSubmitRejectsRemovedEngineFields(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	defer s.Stop()
	srv := httptest.NewServer(NewServer(s))
	defer srv.Close()
	for _, f := range [][2]string{
		{"mixed_precision", "true"}, {"tabulated", "true"}, {"table_spacing", "0.01"},
		{"cluster_skin", "0.5"}, {"pairlist_skin", "1.5"}, {"blocklist_skin", "1.5"},
	} {
		name := f[0]
		body := `{"system":{"preset":"water","side":10,"seed":7,"cutoff":4.5},"steps":10,` +
			`"engine":{"cluster_m":4,"cluster_n":8,"` + name + `":` + f[1] + `}}`
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply map[string]string
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(reply["error"], name) {
			t.Errorf("%s: status %d, error %q; want 400 naming the field", name, resp.StatusCode, reply["error"])
		}
	}
}
