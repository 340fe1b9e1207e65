package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gonamd/internal/ftdc"
)

// streamMetricsSamples subscribes to a job's /metrics NDJSON stream,
// decodes the leading schema line, then reads sample lines until it has
// `want` of them (or the stream ends), returning both.
func streamMetricsSamples(t *testing.T, url, id string, want int) (ftdc.Schema, []map[string]float64) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("metrics content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("metrics stream for %s ended before the schema line", id)
	}
	var hdr struct {
		Schema ftdc.Schema `json:"schema"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("bad schema line %q: %v", sc.Text(), err)
	}
	var samples []map[string]float64
	for len(samples) < want && sc.Scan() {
		var raw map[string]any
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			t.Fatalf("bad sample line %q: %v", sc.Text(), err)
		}
		m := make(map[string]float64, len(raw))
		for k, v := range raw {
			if f, ok := v.(float64); ok {
				m[k] = f
			}
		}
		samples = append(samples, m)
	}
	return hdr.Schema, samples
}

// requireMonotoneSteps asserts the steps column never decreases across
// a decoded sample series — the durability contract for samples written
// before a crash.
func requireMonotoneSteps(t *testing.T, samples []ftdc.Sample, what string) {
	t.Helper()
	prev := -1.0
	for i, s := range samples {
		steps := s.Values[ftdc.FieldSteps]
		if steps < prev {
			t.Fatalf("%s: steps column decreased at sample %d: %g after %g", what, i, steps, prev)
		}
		prev = steps
	}
}

// TestServerMetricsStreamCrashRestart is the telemetry end-to-end
// contract: a job's /metrics endpoint streams schema + live FTDC
// samples over HTTP; killing the server mid-run leaves a decodable
// .ftdc file whose step counter is monotone; a restarted server resumes
// the job, keeps appending to the same file, reports the job in /stats
// aggregates, and — after the job is terminal and the server restarts
// once more — still serves the persisted samples from disk.
func TestServerMetricsStreamCrashRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		StateDir:        dir,
		Workers:         1,
		SliceSteps:      25,
		CheckpointEvery: 40,
		MetricsInterval: 5 * time.Millisecond,
	}
	sched1, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewServer(sched1))

	spec := JobSpec{
		Name:            "metered",
		System:          SystemSpec{Preset: "water", Side: 10, Seed: 7, Cutoff: 4.5},
		Steps:           400,
		Dt:              0.5,
		EnergyEvery:     40,
		CheckpointEvery: 40,
	}
	st := postJob(t, srv1.URL, spec)
	waitFor(t, "job to start stepping", func() bool {
		return getStatus(t, srv1.URL, st.ID).Step >= 1
	})

	// Live streaming: schema first, then samples at the 5ms cadence.
	schema, live := streamMetricsSamples(t, srv1.URL, st.ID, 3)
	if schema.NumFields() != ftdc.NumEngineFields {
		t.Errorf("streamed schema has %d fields, want %d", schema.NumFields(), ftdc.NumEngineFields)
	}
	if schema.FieldIndex("steps") < 0 || schema.FieldIndex("steps_per_sec") < 0 {
		t.Errorf("streamed schema missing core fields: %+v", schema.Fields)
	}
	if len(live) < 3 {
		t.Fatalf("streamed %d live samples, want 3", len(live))
	}
	sawProgress := false
	for _, s := range live {
		if s["steps"] > 0 {
			sawProgress = true
		}
		if s["heap_alloc_bytes"] <= 0 {
			t.Errorf("sample has heap_alloc_bytes %g, want > 0", s["heap_alloc_bytes"])
		}
	}
	if !sawProgress {
		t.Error("no streamed sample showed steps > 0 on a running job")
	}

	// Crash the server past a checkpoint: no flushes, no shutdown hooks.
	waitFor(t, "job past a checkpoint", func() bool {
		return getStatus(t, srv1.URL, st.ID).Step >= 50
	})
	sched1.Kill()
	srv1.Close()

	// The pre-crash file must decode (recovery tolerates a torn tail)
	// with at least the checkpoint-time durable samples, steps monotone.
	_, preCrash, err := ftdc.ReadFile(jobPath(dir, st.ID, "ftdc"))
	if err != nil {
		t.Fatalf("decoding pre-crash metrics: %v", err)
	}
	if len(preCrash) == 0 {
		t.Fatal("no durable metrics samples survived the crash")
	}
	requireMonotoneSteps(t, preCrash, "pre-crash")

	// Restart on the same state directory; the job resumes and finishes.
	sched2, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(NewServer(sched2))
	waitFor(t, "job to finish after restart", func() bool {
		return getStatus(t, srv2.URL, st.ID).State == StateDone
	})

	// The finished job still answers /metrics: ring replay, then the
	// stream ends (the recorder is closed, not discarded).
	schema2, replay := streamMetricsSamples(t, srv2.URL, st.ID, 1)
	if schema2.NumFields() != ftdc.NumEngineFields {
		t.Errorf("post-restart schema has %d fields, want %d", schema2.NumFields(), ftdc.NumEngineFields)
	}
	if len(replay) == 0 {
		t.Error("finished job streamed no replay samples")
	}

	// /stats aggregates: uptime, per-tenant terminal counts, telemetry.
	resp, err := http.Get(srv2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.UptimeSec <= 0 {
		t.Errorf("stats uptime %g, want > 0", stats.UptimeSec)
	}
	done := 0
	for _, ts := range stats.Tenants {
		done += ts.Done
	}
	if done < 1 {
		t.Errorf("stats report %d done jobs across tenants, want ≥ 1", done)
	}
	if stats.Metrics.JobsReporting < 1 {
		t.Errorf("stats report %d jobs with telemetry, want ≥ 1", stats.Metrics.JobsReporting)
	}
	if stats.Metrics.Steps <= 0 {
		t.Errorf("stats aggregate steps %d, want > 0", stats.Metrics.Steps)
	}

	sched2.Stop()
	srv2.Close()

	// After the graceful stop the file holds the pre-crash prefix plus
	// the resumed run's samples.
	_, full, err := ftdc.ReadFile(jobPath(dir, st.ID, "ftdc"))
	if err != nil {
		t.Fatalf("decoding metrics after graceful stop: %v", err)
	}
	if len(full) <= len(preCrash) {
		t.Errorf("file has %d samples after resume, want > %d (the pre-crash count)", len(full), len(preCrash))
	}
	requireMonotoneSteps(t, preCrash, "pre-crash prefix after resume")

	// A third server recovers the job as a terminal record with no live
	// recorder; /metrics falls back to streaming the persisted file.
	sched3, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched3.Stop()
	srv3 := httptest.NewServer(NewServer(sched3))
	defer srv3.Close()
	schema3, fromDisk := streamMetricsSamples(t, srv3.URL, st.ID, len(full))
	if schema3.NumFields() != ftdc.NumEngineFields {
		t.Errorf("file-fallback schema has %d fields, want %d", schema3.NumFields(), ftdc.NumEngineFields)
	}
	if len(fromDisk) != len(full) {
		t.Errorf("file fallback streamed %d samples, want %d", len(fromDisk), len(full))
	}
}
