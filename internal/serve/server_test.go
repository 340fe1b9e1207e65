package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gonamd"
	"gonamd/internal/ckpt"
	"gonamd/internal/ftdc"
	"gonamd/internal/sysio"
	"gonamd/internal/trace"
	"gonamd/internal/traj"
)

// e2eSpecs are the three concurrent jobs of the crash/restart test: a
// plain NVE run, a Langevin run (whose noise stream must survive the
// restart), and a minimized parallel-engine Langevin run with no cluster
// fields (whose minimization and static task decomposition must be
// reconstructed identically, and whose default cluster list travels in
// the checkpoint like an explicitly configured one).
func e2eSpecs() []JobSpec {
	base := JobSpec{
		System:          SystemSpec{Preset: "water", Side: 10, Seed: 7, Cutoff: 4.5},
		Steps:           400,
		Dt:              0.5,
		FrameEvery:      20,
		EnergyEvery:     20,
		CheckpointEvery: 40,
	}
	nve := base
	nve.Name = "nve"

	lang := base
	lang.Name = "langevin"
	lang.Engine = gonamd.EngineSpec{
		Thermostat: &gonamd.ThermostatSpec{Kind: "langevin", Temperature: 300, Seed: 42},
	}

	par := base
	par.Name = "par-langevin"
	par.Minimize = 20
	par.Engine = gonamd.EngineSpec{
		Engine:     "parallel",
		Workers:    2,
		Thermostat: &gonamd.ThermostatSpec{Kind: "langevin", Temperature: 300, Seed: 9},
	}
	return []JobSpec{nve, lang, par}
}

// referenceTrajectory runs a spec's simulation start-to-finish in
// process, through the same build + minimize (JobSpec.prepare) and
// spec→engine bridge the server uses, and returns the trajectory bytes an
// uninterrupted run would produce. Checkpoints do not touch the engine,
// so the reference takes none.
func referenceTrajectory(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	if err := spec.normalize(40); err != nil {
		t.Fatal(err)
	}
	sys, ff, st, err := spec.prepare(false)
	if err != nil {
		t.Fatal(err)
	}
	eng, _, err := spec.Engine.NewEngine(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var buf bytes.Buffer
	w, err := traj.NewWriter(&buf, sys.N(), sys.Box)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(1); step <= spec.Steps; step++ {
		if err := eng.Step(spec.Dt); err != nil {
			t.Fatal(err)
		}
		if step%spec.FrameEvery == 0 {
			if err := w.WriteFrame(step, float64(step)*spec.Dt, st.Pos); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJob(t *testing.T, url string, spec JobSpec) JobStatus {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, url, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// streamUntilEnergy subscribes to a job's NDJSON event stream and reads
// until an energy event arrives, returning it.
func streamUntilEnergy(t *testing.T, url, id string) Event {
	t.Helper()
	req, err := http.NewRequest("GET", url+"/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	deadline := time.Now().Add(60 * time.Second)
	var lastSeq int64
	for sc.Scan() {
		if time.Now().After(deadline) {
			break
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("event seq went backwards: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Type == "energy" && ev.Energy != nil {
			return ev
		}
	}
	t.Fatalf("no energy event on stream for %s", id)
	return Event{}
}

func getTrajectory(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/trajectory")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trajectory: %s: %s", resp.Status, b)
	}
	return b
}

// TestServerCrashRestartResume is the end-to-end contract of the job
// server: three concurrent jobs stream over HTTP, the server is killed
// mid-run (no shutdown hooks), a new server on the same state directory
// resumes them from their checkpoints, and every final trajectory is
// byte-identical to an uninterrupted in-process run of the same spec.
func TestServerCrashRestartResume(t *testing.T) {
	dir := t.TempDir()
	// The first server runs everything through a single pool worker: the
	// three jobs still execute concurrently (time-sliced, all in flight)
	// but total progress is slow enough that the polling goroutine
	// reliably observes the kill window even when other test binaries
	// saturate the machine. The restarted server uses a bigger pool —
	// resume determinism depends on the engine spec, not the scheduler's
	// pool size.
	cfg := Config{StateDir: dir, Workers: 1, TenantQuota: 2, SliceSteps: 25, CheckpointEvery: 40}

	sched1, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewServer(sched1))

	specs := e2eSpecs()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st := postJob(t, srv1.URL, spec)
		ids[i] = st.ID
		if st.State != StateQueued && st.State != StateRunning {
			t.Fatalf("job %s submitted in state %q", st.ID, st.State)
		}
	}

	// Live streaming: the Langevin job must emit energy events while
	// running, with monotonically increasing sequence numbers.
	ev := streamUntilEnergy(t, srv1.URL, ids[1])
	if ev.Step <= 0 || ev.Step%20 != 0 {
		t.Errorf("energy event at step %d, want a positive multiple of 20", ev.Step)
	}
	if ev.Energy.Temperature <= 0 {
		t.Errorf("energy event temperature %g, want > 0", ev.Energy.Temperature)
	}

	// Let every job get a durable checkpoint, then crash the server:
	// no flushes, no shutdown checkpoints.
	waitFor(t, "all jobs past a checkpoint", func() bool {
		for _, id := range ids {
			if getStatus(t, srv1.URL, id).Step < 50 {
				return false
			}
		}
		return true
	})
	sched1.Kill()
	srv1.Close()
	// The kill froze the scheduler, so this is race-free: every job must
	// still have work left, or the test never exercised resume.
	for _, id := range ids {
		j, _ := sched1.Get(id)
		if st := j.Status(); terminal(st.State) {
			t.Fatalf("job %s already %s before the crash; raise Steps", id, st.State)
		}
	}

	// Restart on the same state directory: the rescan must pick every
	// job up from its checkpoint.
	cfg2 := cfg
	cfg2.Workers, cfg2.TenantQuota = 3, 3
	sched2, err := NewScheduler(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer sched2.Stop()
	srv2 := httptest.NewServer(NewServer(sched2))
	defer srv2.Close()

	for _, id := range ids {
		waitFor(t, id+" to finish after restart", func() bool {
			return getStatus(t, srv2.URL, id).State == StateDone
		})
		st := getStatus(t, srv2.URL, id)
		if st.Resumes != 1 {
			t.Errorf("job %s Resumes = %d, want 1", id, st.Resumes)
		}
		if st.Step != specs[0].Steps {
			t.Errorf("job %s finished at step %d, want %d", id, st.Step, specs[0].Steps)
		}
	}

	// The decisive check: the trajectory of each killed-and-resumed job
	// is byte-for-byte the trajectory of an uninterrupted run.
	for i, id := range ids {
		got := getTrajectory(t, srv2.URL, id)
		want := referenceTrajectory(t, specs[i])
		if !bytes.Equal(got, want) {
			t.Errorf("job %s (%s): resumed trajectory differs from uninterrupted run (%d vs %d bytes)",
				id, specs[i].Name, len(got), len(want))
		}
	}

	// The restarted server also lists all jobs and reports stats.
	resp, err := http.Get(srv2.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != len(ids) {
		t.Errorf("list has %d jobs, want %d", len(list), len(ids))
	}
}

// TestServerEnsembleJobChaosRecovery: a replica-exchange ensemble job
// submitted over HTTP survives a server kill and restart, finishing with
// exactly one resume and its full step budget.
func TestServerEnsembleJobChaosRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Workers: 2, SliceSteps: 20, CheckpointEvery: 40}

	sched1, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewServer(sched1))

	// The step budget is far more than either server phase can run, so
	// the kill is guaranteed to land mid-job no matter how long the
	// polling goroutine is starved by other test binaries; the test
	// verifies resume-and-progress, then cancels rather than waiting for
	// completion.
	spec := JobSpec{
		Name:   "remd",
		System: SystemSpec{Preset: "water", Side: 10, Seed: 3, Cutoff: 4.5},
		Steps:  100000,
		Ensemble: &EnsembleSpec{
			Replicas: 3, TMin: 300, TMax: 360, ExchangeEvery: 40, Seed: 11,
		},
		EnergyEvery:     40,
		CheckpointEvery: 40,
	}
	st := postJob(t, srv1.URL, spec)

	waitFor(t, "ensemble past a checkpoint", func() bool {
		return getStatus(t, srv1.URL, st.ID).Step >= 50
	})
	sched1.Kill()
	srv1.Close()
	j, _ := sched1.Get(st.ID)
	if terminal(j.Status().State) {
		t.Fatalf("ensemble already %s before the crash", j.Status().State)
	}

	sched2, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched2.Stop()
	srv2 := httptest.NewServer(NewServer(sched2))
	defer srv2.Close()

	// The rescan must have picked the checkpoint up and the job must
	// advance beyond it.
	got := getStatus(t, srv2.URL, st.ID)
	if got.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", got.Resumes)
	}
	resumedAt := got.Step
	if resumedAt < 40 {
		t.Errorf("resumed at step %d, want ≥ 40 (the checkpoint cadence)", resumedAt)
	}
	waitFor(t, "ensemble to advance past its checkpoint", func() bool {
		return getStatus(t, srv2.URL, st.ID).Step > resumedAt
	})
	got = getStatus(t, srv2.URL, st.ID)
	if len(got.Potentials) != 3 {
		t.Errorf("status has %d replica potentials, want 3", len(got.Potentials))
	}

	resp, err := http.Post(srv2.URL+"/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, "ensemble to cancel", func() bool {
		return getStatus(t, srv2.URL, st.ID).State == StateCanceled
	})
}

// TestServerEnsembleCrashRestartBitwise: the job server is the one way
// to run replica exchange, so it carries the bitwise restart guarantee.
// An ensemble job killed past a checkpoint and finished by a restarted
// server ends with a final checkpoint reflect.DeepEqual to an
// uninterrupted job's: every replica's engine state, the exchange counts
// and the exchange RNG words. Its status reports the per-pair exchange
// counts, its telemetry (<id>.ftdc, streamed from /metrics) carries the
// ladder counters, and its trace (<id>.trace) decodes.
func TestServerEnsembleCrashRestartBitwise(t *testing.T) {
	spec := JobSpec{
		Name:   "remd",
		System: SystemSpec{Preset: "water", Side: 10, Seed: 3, Cutoff: 4.5},
		// Some 300 ms of stepping: the kill lands mid-job even when the
		// polling goroutine waits on other test binaries.
		Steps:           1200,
		Ensemble:        &EnsembleSpec{Replicas: 3, TMin: 300, TMax: 330, ExchangeEvery: 30, Seed: 11},
		EnergyEvery:     40,
		CheckpointEvery: 40,
		Trace:           true,
	}

	// Reference: one server runs the job start to finish.
	refDir := t.TempDir()
	ref := newTestScheduler(t, Config{StateDir: refDir, Workers: 1, SliceSteps: 20})
	refSt, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ref, refSt.ID, StateDone)
	ref.Stop()
	want, err := ckpt.LoadJobFile(jobPath(refDir, refSt.ID, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := Config{StateDir: dir, Workers: 1, SliceSteps: 20, CheckpointEvery: 40}
	sched1, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewServer(sched1))
	st := postJob(t, srv1.URL, spec)
	waitFor(t, "ensemble past a checkpoint", func() bool {
		return getStatus(t, srv1.URL, st.ID).Step >= 50
	})
	sched1.Kill()
	srv1.Close()
	if j, _ := sched1.Get(st.ID); terminal(j.Status().State) {
		t.Fatalf("ensemble already %s before the crash; raise Steps", j.Status().State)
	}

	sched2, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched2.Stop()
	srv2 := httptest.NewServer(NewServer(sched2))
	defer srv2.Close()
	waitFor(t, "the resumed ensemble to finish", func() bool {
		return getStatus(t, srv2.URL, st.ID).State == StateDone
	})
	got := getStatus(t, srv2.URL, st.ID)
	if got.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", got.Resumes)
	}
	final, err := ckpt.LoadJobFile(jobPath(dir, st.ID, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if final.Step != spec.Steps || !reflect.DeepEqual(final.Ensemble, want.Ensemble) {
		t.Fatalf("killed-and-resumed ensemble (step %d) differs from the uninterrupted one (step %d)", final.Step, want.Step)
	}
	if !reflect.DeepEqual(got.ExchangeAttempts, final.Ensemble.Attempts) || !reflect.DeepEqual(got.ExchangeAccepts, final.Ensemble.Accepts) {
		t.Errorf("status exchanges %v of %v, checkpoint %v of %v",
			got.ExchangeAccepts, got.ExchangeAttempts, final.Ensemble.Accepts, final.Ensemble.Attempts)
	}

	schema, samples, err := ftdc.ReadFile(jobPath(dir, st.ID, "ftdc"))
	if err != nil {
		t.Fatalf("decoding %s.ftdc: %v", st.ID, err)
	}
	if len(samples) == 0 {
		t.Fatal("no telemetry samples")
	}
	last := samples[len(samples)-1].Values
	var accepted int64
	for _, n := range final.Ensemble.Accepts {
		accepted += n
	}
	if last[schema.FieldIndex("steps")] != float64(spec.Steps) ||
		last[schema.FieldIndex("replica_steps")] != float64(3*spec.Steps) ||
		last[schema.FieldIndex("exchanges_accepted")] != float64(accepted) {
		t.Errorf("last telemetry sample %v, want %d steps, %d replica steps, %d exchanges accepted",
			last, spec.Steps, 3*spec.Steps, accepted)
	}
	streamed, replay := streamMetricsSamples(t, srv2.URL, st.ID, 1)
	if !reflect.DeepEqual(streamed, schema) || len(replay) == 0 {
		t.Errorf("/metrics streamed schema %+v and %d samples, want the file's schema and samples", streamed, len(replay))
	}

	f, err := os.Open(jobPath(dir, st.ID, "trace"))
	if err != nil {
		t.Fatal(err)
	}
	tlog, err := trace.ReadJSON(f)
	f.Close()
	if err != nil {
		t.Fatalf("decoding %s.trace: %v", st.ID, err)
	}
	advances := 0
	for _, r := range tlog.Records {
		if r.Entry == "replica.advance" {
			advances++
		}
	}
	if advances == 0 {
		t.Errorf("trace has %d records and no replica.advance", len(tlog.Records))
	}
}

// TestServerRejectsBadSpecs: the submit endpoint validates specs and
// rejects malformed ones with 400s, never creating a job.
func TestServerRejectsBadSpecs(t *testing.T) {
	sched, err := NewScheduler(Config{StateDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Stop()
	srv := httptest.NewServer(NewServer(sched))
	defer srv.Close()

	bad := []string{
		`{`, // not JSON
		`{"system":{"preset":"water"},"steps":0}`,                                                            // no step budget
		`{"system":{"preset":"plasma"},"steps":10}`,                                                          // unknown preset
		`{"system":{"preset":"water"},"steps":10,"unknown_field":true}`,                                      // strict decoding
		`{"system":{"preset":"water"},"steps":10,"engine":{"thermostat":{"kind":"nose","temperature":300}}}`, // unknown thermostat
		`{"system":{"preset":"water"},"steps":10,"ensemble":{"replicas":1,"tmin":300,"tmax":360}}`,           // one replica

		// Ensemble parameters ensemble.New would refuse.
		`{"system":{"preset":"water"},"steps":10,"ensemble":{"replicas":2,"tmin":300,"tmax":360,"gamma":-0.01}}`,
		`{"system":{"preset":"water"},"steps":10,"ensemble":{"replicas":2,"tmin":300,"tmax":360,"exchange_every":-5}}`,
		`{"system":{"preset":"water"},"steps":10,"ensemble":{"temperatures":[300,-5]}}`,
		`{"system":{"preset":"water"},"steps":10,"ensemble":{"temperatures":[0,300]}}`,
	}
	for _, body := range bad {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var reply map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", body, resp.StatusCode)
		}
		if strings.Contains(body, `"temperatures"`) && !strings.Contains(reply["error"], "temperatures") {
			t.Errorf("spec %s: error %q does not name the temperatures field", body, reply["error"])
		}
	}
	if got := len(sched.List("")); got != 0 {
		t.Errorf("%d jobs created from invalid specs", got)
	}
	if entries, _ := os.ReadDir(sched.cfg.StateDir); len(entries) != 0 {
		t.Errorf("state dir has %d files after rejected submissions", len(entries))
	}

	resp, err := http.Get(srv.URL + "/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", resp.StatusCode)
	}
}

// TestSubmitRejectsUnbuildableEngineSpecs: every engine spec the options
// layer would refuse at construction is a 400 at submission carrying the
// option's message — it used to be accepted and then fail at the job's
// first slice. A pool under SHAKE/RATTLE is a valid spec and runs.
func TestSubmitRejectsUnbuildableEngineSpecs(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	defer s.Stop()
	srv := httptest.NewServer(NewServer(s))
	defer srv.Close()
	type reply struct{ ID, Error string }
	post := func(engine string) (*http.Response, reply) {
		t.Helper()
		body := `{"system":{"preset":"water","side":10,"seed":7,"cutoff":4.5},"steps":10,"engine":` + engine + `}`
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r reply
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		return resp, r
	}
	for _, c := range []struct{ engine, msg string }{
		{`{"hbond_constraints":true,"pme":{"grid_spacing":1}}`, "cannot be combined"},
		{`{"cluster_m":9,"cluster_n":9}`, "cluster geometry 9x9 out of range"},
		{`{"pme":{"grid_spacing":0}}`, "grid spacing 0 Å must be positive"},
		{`{"pme":{"grid_spacing":1,"beta":-1}}`, "beta -1 Å⁻¹ must be ≥ 0"},
		{`{"engine":"par","rebalance_every":-1}`, "rebalance interval -1 must be ≥ 0"},
		{`{"engine":"seq","rebalance_every":5}`, "WithRebalanceEvery applies only to the parallel engine"},
		{`{"thermostat":{"kind":"nose","temperature":300}}`, "unknown thermostat kind \"nose\""},
	} {
		resp, r := post(c.engine)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(r.Error, c.msg) {
			t.Errorf("engine %s: status %d, error %q; want 400 with %q", c.engine, resp.StatusCode, r.Error, c.msg)
		}
	}
	if got := len(s.List("")); got != 0 {
		t.Errorf("%d jobs created from unbuildable specs", got)
	}

	resp, r := post(`{"engine":"par","workers":2,"hbond_constraints":true}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pool under SHAKE: status %d, error %q; want 201", resp.StatusCode, r.Error)
	}
	waitState(t, s, r.ID, StateDone)
}

// TestServerSurvivesMalformedInlineTopology: an inline topology whose
// bond indexes past its atoms used to panic the exclusion builder on the
// scheduler's slice goroutine and take the whole server down; an atom
// type past the force field's table, or a non-finite coordinate, panicked
// the kernels or the cell binning the same way, and a NaN charge ran and
// streamed NaN energies. Each must end its own job failed, naming the
// defect, while the server keeps serving the next job.
func TestServerSurvivesMalformedInlineTopology(t *testing.T) {
	sched, err := NewScheduler(Config{StateDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Stop()
	srv := httptest.NewServer(NewServer(sched))
	defer srv.Close()

	for _, tc := range []struct {
		corrupt func(*gonamd.System, *gonamd.State)
		note    string
	}{
		{func(sys *gonamd.System, _ *gonamd.State) { sys.Bonds[0].I = 1 << 20 }, "bond 0 index out of range"},
		{func(sys *gonamd.System, _ *gonamd.State) { sys.Atoms[0].Type = 1000 }, "atom 0 has type 1000"},
		{func(_ *gonamd.System, st *gonamd.State) { st.Pos[0].X = math.NaN() }, "atom 0 position"},
		{func(sys *gonamd.System, _ *gonamd.State) { sys.Atoms[1].Charge = math.NaN() }, "atom 1 has non-finite charge"},
	} {
		sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(10, 7))
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(sys, st)
		var blob bytes.Buffer
		if err := sysio.Save(&blob, sys, st); err != nil {
			t.Fatal(err)
		}
		bad := postJob(t, srv.URL, JobSpec{System: SystemSpec{Inline: blob.Bytes(), Cutoff: 4.5}, Steps: 10})
		waitFor(t, "the malformed job to fail", func() bool { return getStatus(t, srv.URL, bad.ID).State == StateFailed })
		if note := getStatus(t, srv.URL, bad.ID).Note; !strings.Contains(note, tc.note) {
			t.Errorf("failed job's note %q does not contain %q", note, tc.note)
		}
	}

	good := postJob(t, srv.URL, waterJob(20))
	waitFor(t, "the next job to finish", func() bool { return getStatus(t, srv.URL, good.ID).State == StateDone })
}

// TestServerFailsDivergingJob: a job whose integration diverges (a 20 fs
// timestep under PME) ends failed before its step budget, with a note
// naming the non-finite energy. It once ran to done on NaN energies: its
// event stream stopped where the first NaN failed to encode, and
// GET /jobs/{id} answered 200 with an empty body. The status must decode
// on every poll, and the server keeps serving the next job.
func TestServerFailsDivergingJob(t *testing.T) {
	sched := newTestScheduler(t, Config{Workers: 1})
	defer sched.Stop()
	srv := httptest.NewServer(NewServer(sched))
	defer srv.Close()

	bad := postJob(t, srv.URL, JobSpec{
		System: SystemSpec{Preset: "water", Side: 16, Seed: 3, Cutoff: 6},
		Engine: gonamd.EngineSpec{PME: &gonamd.PMESpec{GridSpacing: 1}},
		Steps:  400,
		Dt:     20,
	})
	var st JobStatus
	waitFor(t, "the diverging job to end", func() bool {
		st = getStatus(t, srv.URL, bad.ID)
		return terminal(st.State)
	})
	if st.State != StateFailed || st.Step >= 400 || !strings.Contains(st.Note, "non-finite") {
		t.Errorf("diverging job ended %s at step %d with note %q; want failed before step 400 naming the non-finite energy", st.State, st.Step, st.Note)
	}

	good := postJob(t, srv.URL, waterJob(20))
	waitFor(t, "the next job to finish", func() bool { return getStatus(t, srv.URL, good.ID).State == StateDone })
}

// TestRewindTrajectoryIgnoresForeignHeader: on resume the job server
// reads its trajectory file back; one whose header declares another atom
// count (a damaged file) is no trajectory — the job starts a fresh one
// rather than failing on, or allocating for, what the header claims.
func TestRewindTrajectoryIgnoresForeignHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traj.bin")
	box := gonamd.V3{X: 10, Y: 10, Z: 10}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traj.NewWriter(f, 5, box)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteFrame(10, 5, make([]gonamd.V3, 5))
	w.Flush()
	f.Close()

	file, w2, kept, err := rewindTrajectory(path, 3, box, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if kept != 0 {
		t.Errorf("kept %d frames of a 5-atom trajectory for a 3-atom job", kept)
	}
	if err := w2.WriteFrame(20, 10, make([]gonamd.V3, 3)); err != nil {
		t.Fatal(err)
	}
	w2.Flush()
	r, err := traj.NewReader(bytes.NewReader(mustRead(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	if r.NAtoms != 3 {
		t.Fatalf("rewound file header declares %d atoms, want a fresh 3-atom trajectory", r.NAtoms)
	}
	if frames, err := r.ReadAll(); err != nil || len(frames) != 1 || frames[0].Step != 20 {
		t.Errorf("rewound file holds %d frames (err %v), want only the new step-20 frame", len(frames), err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
