package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"

	"gonamd/internal/ftdc"
)

// Server is the HTTP face of a Scheduler. Everything is stdlib: JSON
// request/response bodies and NDJSON event streams over net/http.
//
//	POST /jobs                submit a JobSpec, returns its JobStatus
//	GET  /jobs?tenant=t       list jobs (all tenants when unset)
//	GET  /jobs/{id}           one job's status
//	POST /jobs/{id}/cancel    stop the job
//	POST /jobs/{id}/pause     checkpoint and park the job
//	POST /jobs/{id}/resume    requeue a paused job
//	GET  /jobs/{id}/events    NDJSON stream: status, energy, frame,
//	                          and summary events (replay, then live)
//	GET  /jobs/{id}/metrics   NDJSON telemetry stream: schema line, then
//	                          one FTDC sample per line (replay, then
//	                          live while the job runs; the persisted
//	                          .ftdc file when it does not)
//	GET  /jobs/{id}/trajectory the binary trajectory written so far
//	GET  /jobs/{id}/summary   the job's Projections report (trace jobs)
//	GET  /stats               scheduler stats: queues, quotas, workers,
//	                          uptime, per-tenant job counts, aggregate
//	                          telemetry
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer wraps a scheduler in its HTTP API.
func NewServer(sched *Scheduler) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.submit)
	s.mux.HandleFunc("GET /jobs", s.list)
	s.mux.HandleFunc("GET /jobs/{id}", s.status)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.lifecycle((*Scheduler).Cancel))
	s.mux.HandleFunc("POST /jobs/{id}/pause", s.lifecycle((*Scheduler).Pause))
	s.mux.HandleFunc("POST /jobs/{id}/resume", s.lifecycle((*Scheduler).Resume))
	s.mux.HandleFunc("GET /jobs/{id}/events", s.events)
	s.mux.HandleFunc("GET /jobs/{id}/metrics", s.metrics)
	s.mux.HandleFunc("GET /jobs/{id}/trajectory", s.trajectory)
	s.mux.HandleFunc("GET /jobs/{id}/summary", s.summary)
	s.mux.HandleFunc("GET /stats", s.stats)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Scheduler exposes the wrapped scheduler (for graceful shutdown).
func (s *Server) Scheduler() *Scheduler { return s.sched }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxInlineSize*2))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	if t := r.Header.Get("X-Tenant"); t != "" {
		spec.Tenant = t
	}
	st, err := s.sched.Submit(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.List(r.URL.Query().Get("tenant")))
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errNoJob(r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// lifecycle adapts Cancel/Pause/Resume into a handler.
func (s *Server) lifecycle(op func(*Scheduler, string) (JobStatus, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st, err := op(s.sched, r.PathValue("id"))
		if err != nil {
			code := http.StatusConflict
			if st.ID == "" {
				code = http.StatusNotFound
			}
			writeErr(w, code, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
}

// events streams a job's events as NDJSON: one JSON object per line,
// the replay buffer first, then live events until the job reaches a
// terminal state or the client disconnects.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errNoJob(r.PathValue("id")))
		return
	}
	replay, live, cancel := j.events.subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for _, ev := range replay {
		if enc.Encode(ev) != nil {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-live:
			if !ok {
				return // job finished; stream is complete
			}
			if enc.Encode(ev) != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// metrics streams a job's FTDC telemetry as NDJSON under the same
// contract as /events: first line the schema, then one sample object
// per line — the recorder's ring replayed, then live samples until the
// job ends or the client disconnects. A job with no live recorder (not
// yet started, or recovered from a previous server process) streams
// the persisted .ftdc file instead and ends.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errNoJob(r.PathValue("id")))
		return
	}
	rec := j.Metrics()
	var schema ftdc.Schema
	var replay []ftdc.Sample
	var live <-chan ftdc.Sample
	if rec != nil {
		schema = rec.Schema()
		var cancel func()
		replay, live, cancel = rec.Subscribe()
		defer cancel()
	} else {
		var err error
		schema, replay, err = ftdc.ReadFile(j.metricsPath())
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				writeErr(w, http.StatusNotFound,
					fmt.Errorf("serve: job %s has no metrics", j.ID))
			} else {
				writeErr(w, http.StatusInternalServerError, err)
			}
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	hdr, err := ftdc.MarshalSchema(schema)
	if err != nil {
		return
	}
	var buf []byte
	writeSample := func(smp ftdc.Sample) bool {
		buf = ftdc.AppendSampleJSON(buf[:0], schema, smp)
		buf = append(buf, '\n')
		_, werr := w.Write(buf)
		return werr == nil
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return
	}
	for _, smp := range replay {
		if !writeSample(smp) {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	if live == nil {
		return
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case smp, ok := <-live:
			if !ok {
				return // recorder closed; stream is complete
			}
			if !writeSample(smp) {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

func (s *Server) trajectory(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errNoJob(r.PathValue("id")))
		return
	}
	if j.Spec.FrameEvery <= 0 {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("serve: job %s has no trajectory (frame_every = 0)", j.ID))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := j.ReadTrajectory(w); err != nil {
		// Headers are gone; the truncated body is the best we can do.
		return
	}
}

func (s *Server) summary(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errNoJob(r.PathValue("id")))
		return
	}
	raw, err := j.Summary()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Stats())
}
