package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gonamd"
	"gonamd/internal/ckpt"
	"gonamd/internal/ftdc"
	"gonamd/internal/serve"
	"gonamd/internal/traj"
)

const (
	bgTenants        = 2 // background tenants …
	bgClientsPerTen  = 3 // … each with this many closed-loop clients
	probeTenant      = "probe"
	warmupTenant     = "warmup"
	serveSliceSteps  = 25 // the scheduler's default quantum, also used by the bare baseline
	serveCkptEvery   = 100
	serveFrameEvery  = 50
	serveEnergyEvery = 10
)

// serveRig is an in-process gonamdd: a scheduler with its state
// directory on real disk behind a loopback HTTP server.
type serveRig struct {
	dir     string
	sched   *serve.Scheduler
	ts      *httptest.Server
	client  *http.Client
	stopped bool
}

func (r *run) jobSpec(name string, side float64, steps int64, seed uint64) serve.JobSpec {
	return serve.JobSpec{
		Name:            name,
		System:          serve.SystemSpec{Preset: "water", Side: side, Seed: seed, Cutoff: r.sz.serveCutoff},
		Engine:          gonamd.EngineSpec{Engine: "seq", ClusterM: clusterM, ClusterN: clusterN},
		Steps:           steps,
		Dt:              mdDt,
		Minimize:        r.sz.jobMinimize,
		CheckpointEvery: serveCkptEvery,
		FrameEvery:      serveFrameEvery,
		EnergyEvery:     serveEnergyEvery,
	}
}

// jobSeed derives the system seed of a client's k-th job from the run's.
func (r *run) jobSeed(client, k int) uint64 {
	return r.seed*1000003 + uint64(client)*1009 + uint64(k)
}

// serveSetup starts the service on a fresh state directory and pushes
// one small job through it end to end, so the first timed submit meets
// a warm server: what a user waits for before their first job moves.
func (r *run) serveSetup(rep int) (*serveRig, float64, error) {
	root := r.tr.begin("setup", noSpan)
	defer r.tr.end(root)
	start := time.Now()
	rig := &serveRig{dir: filepath.Join(r.outDir, fmt.Sprintf("state-%d-%d", os.Getpid(), rep))}
	if err := os.RemoveAll(rig.dir); err != nil {
		return nil, 0, err
	}
	var err error
	r.tr.time("serve.NewScheduler", root, func() {
		rig.sched, err = serve.NewScheduler(serve.Config{StateDir: rig.dir, Workers: gateWorkers})
	})
	if err != nil {
		return nil, 0, err
	}
	rig.ts = httptest.NewServer(serve.NewServer(rig.sched))
	rig.client = rig.ts.Client()
	out := rig.runJob(r, warmupTenant, r.jobSpec("warmup", r.sz.probeSide, r.sz.probeSteps, r.seed), root)
	if out.err != nil || out.state != serve.StateDone {
		rig.close()
		return nil, 0, fmt.Errorf("warm-up job ended %q: %v", out.state, out.err)
	}
	return rig, time.Since(start).Seconds(), nil
}

// stop shuts the server and the scheduler down, once.
func (rig *serveRig) stop() error {
	if rig.stopped {
		return nil
	}
	rig.stopped = true
	rig.ts.Close()
	return rig.sched.Stop()
}

// close stops the service and removes its state.
func (rig *serveRig) close() {
	_ = rig.stop() // every job is terminal; nothing is left to checkpoint
	_ = os.RemoveAll(rig.dir)
}

// jobOutcome is one job as its client saw it; times are seconds from
// the moment the client began the submit request.
type jobOutcome struct {
	state    string
	err      error
	submitS  float64 // POST /jobs round trip
	runningS float64 // first "running" status event: queue wait + dispatch
	doneS    float64 // terminal status event
	events   int     // NDJSON lines delivered
	slices   int     // "running" status events, one per scheduling slice
	// segments are the gaps between consecutive events of the stream
	// while the job holds the worker (from a "running" status event to
	// the status event that ends the turn): together they are the job's
	// time on the worker, cut every ten steps by an energy event. The
	// first one builds the system and the engine.
	segments []segment
}

// segment is the time between two consecutive events, keyed by the work
// that lies between them: the kinds of the two events, the steps in
// between, and where the first one falls in the cadences the job was
// submitted with. Segments with one key are repeats of one piece of
// work, within a job and across the jobs of one spec.
type segment struct {
	key  string
	secs float64
}

// mark is one event of a job as the segments see it.
type mark struct {
	kind string // status state, or event type
	step int64
	at   float64 // seconds
}

func segmentBetween(from, to mark) segment {
	key := fmt.Sprintf("%s→%s+%d", from.kind, to.kind, to.step-from.step)
	switch {
	case from.step == 0:
		key += " first" // builds the system and the engine
	case from.step%serveCkptEvery == 0:
		key += " ckpt" // writes the checkpoint, or rebuilds the list after it
	}
	return segment{key, to.at - from.at}
}

// runJob submits a job over HTTP and follows its /events stream to the
// end, as one closed-loop client does.
func (rig *serveRig) runJob(r *run, tenant string, spec serve.JobSpec, parent int) jobOutcome {
	var out jobOutcome
	body, err := json.Marshal(spec)
	if err != nil {
		out.err = err
		return out
	}
	start := time.Now()
	id := r.tr.begin("job."+tenant, parent)
	defer r.tr.end(id)

	var st serve.JobStatus
	out.submitS = r.tr.time("http.POST /jobs", id, func() {
		req, rerr := http.NewRequest(http.MethodPost, rig.ts.URL+"/jobs", bytes.NewReader(body))
		if rerr != nil {
			out.err = rerr
			return
		}
		req.Header.Set("X-Tenant", tenant)
		resp, rerr := rig.client.Do(req)
		if rerr != nil {
			out.err = rerr
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			out.err = fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(msg))
			return
		}
		out.err = json.NewDecoder(resp.Body).Decode(&st)
	})
	if out.err != nil {
		return out
	}

	r.tr.time("http.GET /jobs/{id}/events", id, func() {
		resp, rerr := rig.client.Get(rig.ts.URL + "/jobs/" + st.ID + "/events")
		if rerr != nil {
			out.err = rerr
			return
		}
		defer resp.Body.Close()
		// Events that happened before the subscription are replayed in one
		// burst with the response headers: they arrive together, whenever
		// they happened, so no segment may start at one of them.
		replayUntil := time.Since(start).Seconds() + 0.5e-3
		lines := bufio.NewScanner(resp.Body)
		lines.Buffer(make([]byte, 64<<10), 4<<20)
		var last *mark // the previous event, while the job holds the worker
		for lines.Scan() {
			var ev serve.Event
			if out.err = json.Unmarshal(lines.Bytes(), &ev); out.err != nil {
				return
			}
			out.events++
			now := time.Since(start).Seconds()
			cur := mark{ev.Type, ev.Step, now}
			if ev.Type == "status" {
				cur.kind = ev.State
			}
			if last != nil {
				out.segments = append(out.segments, segmentBetween(*last, cur))
			}
			if last = &cur; now < replayUntil {
				last = nil
			}
			if ev.Type != "status" {
				continue
			}
			switch ev.State {
			case serve.StateRunning:
				if out.slices++; out.slices == 1 {
					out.runningS = now
				}
			case serve.StateDone, serve.StateFailed, serve.StateCanceled:
				out.state, out.doneS = ev.State, now
				last = nil
			default: // queued: the turn is over
				last = nil
			}
		}
		out.err = lines.Err()
	})
	return out
}

// serveStats is what the clients of one timed window observed.
type serveStats struct {
	throughput float64 // all jobs' steps inside the window ÷ its wall
	steps      int64
	bgJobs     [][]segment // per completed background job, its time on the worker
	probes     []float64   // probe submit → done, seconds
	submits    []float64
	firstRuns  []float64
	bgTurns    []float64 // background job submit → done, seconds
	events     int
	slices     int
	dropped    int64
	jobs       int
	diskBytes  int64
	ftdcN      int
	ftdcBytes  int64
}

// serveWindow drives the traffic mix for d: two tenants × three
// closed-loop clients submitting background jobs back to back, and one
// probe tenant whose single client submits small jobs back to back.
// Throughput is read at the deadline from GET /jobs; the clients then
// finish the job they have in flight, unmeasured, so that every
// submitted job can be checked for ending "done".
func (r *run) serveWindow(rig *serveRig, d time.Duration) (*serveStats, error) {
	root := r.tr.begin("window.serve", noSpan)
	defer r.tr.end(root)
	var mu sync.Mutex
	s := &serveStats{}
	record := func(probe bool, out jobOutcome) {
		mu.Lock()
		defer mu.Unlock()
		r.attempted++
		s.jobs++
		if out.err != nil || out.state != serve.StateDone {
			r.fail(1, "job ended %q: %v", out.state, out.err)
			return
		}
		s.events += out.events
		s.slices += out.slices
		s.submits = append(s.submits, out.submitS)
		s.firstRuns = append(s.firstRuns, out.runningS)
		if probe {
			s.probes = append(s.probes, out.doneS)
		} else {
			s.bgTurns = append(s.bgTurns, out.doneS)
			s.bgJobs = append(s.bgJobs, out.segments)
		}
	}

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	client := func(tenant string, idx int, side float64, steps int64) {
		defer wg.Done()
		for k := 0; time.Now().Before(deadline); k++ {
			spec := r.jobSpec(fmt.Sprintf("%s-%d-%d", tenant, idx, k), side, steps, r.jobSeed(idx, k))
			record(tenant == probeTenant, rig.runJob(r, tenant, spec, root))
		}
	}
	for t := 0; t < bgTenants; t++ {
		for c := 0; c < bgClientsPerTen; c++ {
			wg.Add(1)
			go client(fmt.Sprintf("tenant%d", t+1), t*bgClientsPerTen+c, r.sz.bgSide, r.sz.bgSteps)
		}
	}
	wg.Add(1)
	go client(probeTenant, bgTenants*bgClientsPerTen, r.sz.probeSide, r.sz.probeSteps)

	// At the deadline, read every job's progress in one request.
	time.Sleep(time.Until(deadline))
	var list []serve.JobStatus
	var err error
	r.tr.time("http.GET /jobs", root, func() { list, err = rig.list() })
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	for _, st := range list {
		if st.Tenant != warmupTenant {
			s.steps += st.Step
		}
	}
	s.throughput = float64(s.steps) / wall
	wg.Wait()

	if list, err = rig.list(); err != nil {
		return nil, err
	}
	for _, st := range list {
		s.dropped += st.DroppedEvents
	}
	return s, nil
}

func (rig *serveRig) list() ([]serve.JobStatus, error) {
	resp, err := rig.client.Get(rig.ts.URL + "/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var list []serve.JobStatus
	return list, json.NewDecoder(resp.Body).Decode(&list)
}

// checkRestart stops the service and starts a second scheduler on the
// same state directory: every job must come back "done" at its full
// step count. It also reads what the run left on disk.
func (r *run) checkRestart(rig *serveRig, s *serveStats) error {
	if err := rig.stop(); err != nil {
		return err
	}
	entries, err := os.ReadDir(rig.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return err
		}
		s.diskBytes += info.Size()
		if filepath.Ext(e.Name()) == ".ftdc" {
			_, samples, err := ftdc.ReadFile(filepath.Join(rig.dir, e.Name()))
			if err != nil {
				return fmt.Errorf("reading %s: %w", e.Name(), err)
			}
			s.ftdcN += len(samples)
			s.ftdcBytes += info.Size()
		}
	}
	again, err := serve.NewScheduler(serve.Config{StateDir: rig.dir, Workers: gateWorkers})
	if err != nil {
		return err
	}
	seen := 0
	for _, st := range again.List("") {
		if st.Tenant == warmupTenant {
			continue
		}
		seen++
		if st.State != serve.StateDone || st.Step != st.Steps {
			r.fail(1, "after restart job %s is %q at step %d of %d", st.ID, st.State, st.Step, st.Steps)
		}
	}
	if seen != s.jobs {
		r.fail(0, "after restart the state directory holds %d jobs, %d were submitted", seen, s.jobs)
	}
	return again.Stop()
}

// quietJobRate is the rate a background job advances at while it holds
// the worker on a quiet host, construction, frames and checkpoints
// included: its step budget over the sum, over the kinds of segment, of
// that kind's quiet time times its occurrences in a job. It also
// returns the smallest number of samples a kind had.
func quietJobRate(jobs [][]segment, steps int64) (float64, int) {
	samples := map[string][]float64{}
	perJob := map[string]int{}
	for _, j := range jobs {
		count := map[string]int{}
		for _, sg := range j {
			samples[sg.key] = append(samples[sg.key], sg.secs)
			count[sg.key]++
		}
		for key, c := range count {
			perJob[key] = max(perJob[key], c) // a job that lost a segment to the replay has fewer
		}
	}
	total, n := 0.0, 0
	for key, v := range samples {
		total += quiet(v) * float64(perJob[key])
		if n == 0 || len(v) < n {
			n = len(v)
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(steps) / total, n
}

// bareJobs runs background jobs with no service around them for d (and
// until two rounds have completed, as many jobs as the service's first
// round): one goroutine builds,
// minimizes and steps one tenant's three systems on sequential engines,
// taking turns of one scheduler quantum, and starts a job over when its
// step budget is spent. No HTTP, no scheduler, no checkpoints, frames,
// telemetry or events. Its time is cut into segments where the service
// would have emitted an energy event, and returned per completed job.
func (r *run) bareJobs(d time.Duration) ([][]segment, error) {
	type bareJob struct {
		eng      gonamd.Engine
		step     int64
		segments []segment
	}
	id := r.tr.begin("window.bare", noSpan)
	defer r.tr.end(id)
	jobs := make([]bareJob, bgClientsPerTen)
	var done [][]segment
	for deadline := time.Now().Add(d); time.Now().Before(deadline) || len(done) < 2*len(jobs); {
		for i := range jobs {
			j := &jobs[i]
			start := time.Now()
			last := mark{serve.StateRunning, j.step, 0}
			note := func(kind string) {
				cur := mark{kind, j.step, time.Since(start).Seconds()}
				j.segments = append(j.segments, segmentBetween(last, cur))
				last = cur
			}
			if j.eng == nil {
				sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(r.sz.bgSide, r.jobSeed(i, 0)))
				if err != nil {
					return nil, err
				}
				ff := gonamd.StandardForceField(r.sz.serveCutoff)
				m, err := gonamd.NewSequential(sys, ff, st)
				if err != nil {
					return nil, err
				}
				m.Minimize(r.sz.jobMinimize, 0.2)
				spec := gonamd.EngineSpec{Engine: "seq", ClusterM: clusterM, ClusterN: clusterN}
				if j.eng, _, err = spec.NewEngine(sys, ff, st); err != nil {
					return nil, err
				}
			}
			for n := 0; n < serveSliceSteps && j.step < r.sz.bgSteps; n++ {
				j.eng.Step(mdDt)
				if j.step++; j.step%serveEnergyEvery == 0 {
					note("energy")
				}
			}
			if note(serve.StateQueued); j.step == r.sz.bgSteps {
				done = append(done, j.segments)
				*j = bareJob{}
			}
		}
	}
	return done, nil
}

func runServe(r *run) error {
	var rig *serveRig
	var setups []float64
	for i := 0; i < r.setups(); i++ {
		if rig != nil {
			rig.close()
		}
		var s float64
		var err error
		if rig, s, err = r.serveSetup(i); err != nil {
			return err
		}
		setups = append(setups, s)
	}
	defer rig.close()
	r.setN("setup_s", median(setups), len(setups))

	// The service and the bare baseline get half of --seconds each.
	s, err := r.serveWindow(rig, r.window(0.5))
	if err != nil {
		return err
	}
	if err := r.checkRestart(rig, s); err != nil {
		return err
	}
	served, n := quietJobRate(s.bgJobs, r.sz.bgSteps)
	if n == 0 {
		r.fail(0, "no background job completed")
	}
	r.setN("steps_per_s", served, n)

	bareJobs, err := r.bareJobs(r.window(0.5))
	if err != nil {
		return err
	}
	bare, n := quietJobRate(bareJobs, r.sz.bgSteps)
	r.setN("seq_steps_per_s", bare, n)
	if !r.traced {
		return nil
	}

	if len(s.probes) == 0 {
		r.fail(0, "no probe job completed")
	}
	if p := tailPercentile(len(s.probes)); p > 50 {
		fmt.Printf("  probe tail: p%g = %.1f ms over %d probes\n", p, 1e3*percentile(s.probes, p), len(s.probes))
	}
	r.set("serve.overhead_pct", 100*(1-served/bare))
	r.setN("serve.throughput_steps_per_s", s.throughput, int(s.steps))
	r.setN("serve.probe_ms_p50", 1e3*median(s.probes), len(s.probes))
	r.setN("serve.probe_ms_p90", 1e3*percentile(s.probes, 90), len(s.probes))
	r.setN("serve.submit_ms_p50", 1e3*median(s.submits), len(s.submits))
	r.setN("serve.first_event_ms_p50", 1e3*median(s.firstRuns), len(s.firstRuns))
	r.setN("serve.bg_turnaround_s_p50", median(s.bgTurns), len(s.bgTurns))
	r.set("serve.probes", float64(len(s.probes)))
	r.set("serve.slices", float64(s.slices))
	r.set("serve.events_delivered", float64(s.events))
	r.set("serve.events_dropped", float64(s.dropped))
	r.set("serve.disk_bytes_total", float64(s.diskBytes))
	r.set("ftdc.samples", float64(s.ftdcN))
	if s.ftdcN > 0 {
		r.set("ftdc.bytes_per_sample", float64(s.ftdcBytes)/float64(s.ftdcN))
	}
	return r.storageLayers(rig.dir)
}

// storageLayers times the checkpoint and trajectory writers on a state
// the size of one background job, into the service's state directory.
func (r *run) storageLayers(dir string) error {
	root := r.tr.begin("layers", noSpan)
	defer r.tr.end(root)
	_, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(r.sz.bgSide, r.seed))
	if err != nil {
		return err
	}
	spec, err := json.Marshal(r.jobSpec("layers", r.sz.bgSide, r.sz.bgSteps, r.seed))
	if err != nil {
		return err
	}
	snap := &ckpt.JobState{ID: "layers", SpecJSON: spec, Step: serveCkptEvery, Precision: "fp64", Pos: st.Pos, Vel: st.Vel}
	path := filepath.Join(dir, "layers.ckpt")
	reps := 3 * r.sz.layerReps
	var saves, loads []float64
	for i := 0; i < reps; i++ {
		saves = append(saves, r.tr.time("ckpt.SaveJobFile", root, func() { err = ckpt.SaveJobFile(path, snap) }))
		if err != nil {
			return err
		}
		loads = append(loads, r.tr.time("ckpt.LoadJobFile", root, func() { _, err = ckpt.LoadJobFile(path) }))
		if err != nil {
			return err
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.setN("ckpt.save_ms_p50", 1e3*median(saves), reps)
	r.setN("ckpt.load_ms_p50", 1e3*median(loads), reps)
	r.set("ckpt.bytes", float64(info.Size()))

	f, err := os.Create(filepath.Join(dir, "layers.traj"))
	if err != nil {
		return err
	}
	defer f.Close()
	box := gonamd.WaterBoxSpec(r.sz.bgSide, r.seed).Box
	w, err := traj.NewWriter(f, len(st.Pos), box)
	if err != nil {
		return err
	}
	var frames []float64
	for i := 0; i < 10*reps; i++ {
		frames = append(frames, r.tr.time("traj.Writer.WriteFrame", root, func() {
			err = w.WriteFrame(int64(i), float64(i)*mdDt, st.Pos)
		}))
		if err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if info, err = f.Stat(); err != nil {
		return err
	}
	r.setN("traj.frame_us_p50", 1e6*median(frames), len(frames))
	r.set("traj.bytes_per_frame", float64(info.Size())/float64(len(frames)))
	return nil
}
