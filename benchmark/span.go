package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-owned interval around a call into a layer's
// public function. Spans of one run share its workload id; Parent is the
// id of the span that caused this one (-1 for a root).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

// tracer times calls and, when on, keeps their spans in memory until
// the run ends. With tracing off it only times, so both passes drive
// the layers through identical call sites.
type tracer struct {
	on       bool
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string, on bool) *tracer {
	return &tracer{on: on, workload: workload, t0: time.Now()}
}

const noSpan = -1

// begin opens a span under parent and returns its id (noSpan when off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return noSpan
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if id == noSpan {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// time runs f inside a span and returns its wall time in seconds.
func (t *tracer) time(name string, parent int, f func()) float64 {
	id := t.begin(name, parent)
	start := time.Now()
	f()
	d := time.Since(start).Seconds()
	t.end(id)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once; a child is clipped to its parent).
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][][2]float64)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != s.ID {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]float64{lo, hi})
			}
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, edge := 0.0, s.Start
		for _, c := range iv {
			lo := max(c[0], edge)
			if c[1] > lo {
				covered += c[1] - lo
				edge = c[1]
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
