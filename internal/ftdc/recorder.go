package ftdc

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gonamd/internal/fanout"
)

// Recorder is the live half of the telemetry pipeline: producers Store
// into a preallocated atomic slot array (one lock-free word store per
// field, no allocation), and a sampler — a ticker goroutine when an
// interval is set, explicit SampleNow calls otherwise — periodically
// snapshots the slots into a fixed-size ring, derives steps/sec and
// the runtime block, fans the sample out to subscribers, and forwards
// it to an optional Sink. Producers never wait on the sampler and the
// sampler never writes a slot a producer reads, so a recorder attached
// to an engine leaves the step path at 0 allocs and O(fields) atomic
// stores.
type Recorder struct {
	schema Schema
	slots  []atomic.Uint64

	interval    time.Duration
	rateField   int // derived: Δstep/Δt, -1 to disable
	stepField   int // source counter for rateField
	runtimeBase int // first of the 5 runtime fields, -1 to disable

	mu        sync.Mutex
	ring      []Sample // fixed capacity, shared backing array
	backing   []float64
	head      int // next write position
	count     int // valid samples, ≤ len(ring)
	lastSteps float64
	lastTime  int64
	haveLast  bool
	sink      Sink
	subs      fanout.Fanout[Sample] // closed: no further samples
	stopped   bool                  // sampler goroutine told to exit
	memStats  runtime.MemStats

	stop chan struct{}
	done chan struct{}
}

// Sink receives every sample the sampler takes, in order, under the
// recorder's lock — implementations must not call back into the
// recorder. *Writer and *FileWriter satisfy it.
type Sink interface {
	Append(unixNanos int64, values []float64) error
}

// Options configures a Recorder.
type Options struct {
	Schema Schema
	// Interval enables the background sampler goroutine. Zero means
	// manual sampling via SampleNow (deterministic; what tests and the
	// slice-driven scheduler use).
	Interval time.Duration
	// StepField/RateField: when both are ≥ 0 the sampler writes
	// Δ(values[StepField])/Δt into values[RateField].
	StepField int
	RateField int
	// RuntimeBase ≥ 0 makes the sampler fill the five runtime fields
	// (heap alloc, total alloc, num GC, GC pause ns, goroutines)
	// starting at that index, via runtime.ReadMemStats at sample
	// cadence only.
	RuntimeBase int
}

// ringSize is how many of the latest samples a recorder keeps in memory.
const ringSize = 512

// NewRecorder builds a recorder; if opts.Interval > 0 the sampler
// goroutine starts immediately.
func NewRecorder(opts Options) *Recorder {
	nf := opts.Schema.NumFields()
	backing := make([]float64, ringSize*nf)
	ring := make([]Sample, ringSize)
	for i := range ring {
		ring[i].Values = backing[i*nf : (i+1)*nf : (i+1)*nf]
	}
	r := &Recorder{
		schema:      opts.Schema,
		slots:       make([]atomic.Uint64, nf),
		interval:    opts.Interval,
		rateField:   opts.RateField,
		stepField:   opts.StepField,
		runtimeBase: opts.RuntimeBase,
		ring:        ring,
		backing:     backing,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	if r.interval > 0 {
		go r.loop()
	} else {
		close(r.done)
	}
	return r
}

// NewEngineRecorder builds a recorder over EngineSchema with the
// derived-rate and runtime fields wired to their standard slots.
// interval == 0 means manual SampleNow sampling.
func NewEngineRecorder(interval time.Duration) *Recorder {
	return NewRecorder(Options{
		Schema:      EngineSchema(),
		Interval:    interval,
		StepField:   FieldSteps,
		RateField:   FieldStepsPerSec,
		RuntimeBase: FieldHeapAlloc,
	})
}

// Schema returns the recorder's schema.
func (r *Recorder) Schema() Schema { return r.schema }

// Store publishes values[i] = v. It is the producer hot-path call:
// one atomic store, no locks, no allocation, nil-safe.
func (r *Recorder) Store(i int, v float64) {
	if r == nil || i < 0 || i >= len(r.slots) {
		return
	}
	r.slots[i].Store(math.Float64bits(v))
}

// StoreInt publishes an integral counter value.
func (r *Recorder) StoreInt(i int, v int64) { r.Store(i, float64(v)) }

// Load returns the last published value for field i.
func (r *Recorder) Load(i int) float64 {
	if r == nil || i < 0 || i >= len(r.slots) {
		return 0
	}
	return math.Float64frombits(r.slots[i].Load())
}

func (r *Recorder) loop() {
	defer close(r.done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.SampleNow()
		}
	}
}

// SampleNow takes one sample: snapshot the slots, derive the rate and
// runtime fields, append to the ring, forward to sink and subscribers.
// Safe to call concurrently with Store; nil-safe. In the steady state
// with no subscribers it allocates nothing.
func (r *Recorder) SampleNow() {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	if r.subs.Closed() {
		r.mu.Unlock()
		return
	}
	s := &r.ring[r.head]
	s.UnixNanos = now
	for i := range r.slots {
		s.Values[i] = math.Float64frombits(r.slots[i].Load())
	}
	if r.rateField >= 0 && r.rateField < len(s.Values) && r.stepField >= 0 && r.stepField < len(s.Values) {
		steps := s.Values[r.stepField]
		rate := 0.0
		if r.haveLast && now > r.lastTime {
			rate = (steps - r.lastSteps) / (float64(now-r.lastTime) / 1e9)
		}
		s.Values[r.rateField] = rate
		r.lastSteps = steps
		r.lastTime = now
		r.haveLast = true
	}
	if b := r.runtimeBase; b >= 0 && b+5 <= len(s.Values) {
		runtime.ReadMemStats(&r.memStats)
		s.Values[b] = float64(r.memStats.HeapAlloc)
		s.Values[b+1] = float64(r.memStats.TotalAlloc)
		s.Values[b+2] = float64(r.memStats.NumGC)
		s.Values[b+3] = float64(r.memStats.PauseTotalNs)
		s.Values[b+4] = float64(runtime.NumGoroutine())
	}
	r.head = (r.head + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	}
	if r.sink != nil {
		r.sink.Append(s.UnixNanos, s.Values)
	}
	if r.subs.Len() > 0 {
		// Copy: the ring slot is reused on wraparound.
		r.subs.Publish(Sample{UnixNanos: s.UnixNanos, Values: append([]float64(nil), s.Values...)})
	}
	r.mu.Unlock()
}

// SetSink installs (or clears) the on-disk sink. Subsequent samples
// are forwarded; the ring history is not replayed.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// Sync flushes the sink and, when it supports it, fsyncs it — all
// under the recorder's lock, so a checkpoint-time sync never races the
// sampler goroutine's appends.
func (r *Recorder) Sync() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sink.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	if f, ok := r.sink.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// Flush flushes the sink if it supports it.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.sink.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// SampleCount reports how many samples have been taken (capped at the
// ring size).
func (r *Recorder) SampleCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Last returns a copy of the most recent sample, or false if none.
func (r *Recorder) Last() (Sample, bool) {
	if r == nil {
		return Sample{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return Sample{}, false
	}
	idx := (r.head - 1 + len(r.ring)) % len(r.ring)
	s := r.ring[idx]
	out := Sample{UnixNanos: s.UnixNanos, Values: append([]float64(nil), s.Values...)}
	return out, true
}

// History returns a copy of the ring contents, oldest first.
func (r *Recorder) History() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.historyLocked()
}

func (r *Recorder) historyLocked() []Sample {
	out := make([]Sample, 0, r.count)
	start := (r.head - r.count + len(r.ring)) % len(r.ring)
	for i := 0; i < r.count; i++ {
		s := r.ring[(start+i)%len(r.ring)]
		out = append(out, Sample{UnixNanos: s.UnixNanos, Values: append([]float64(nil), s.Values...)})
	}
	return out
}

// Subscribe returns the ring history (replay), a live channel of
// subsequent samples, and a cancel func. The channel closes on Close,
// Kill or cancel; slow consumers drop samples rather than block the
// sampler.
func (r *Recorder) Subscribe() (replay []Sample, live <-chan Sample, cancel func()) {
	if r == nil {
		ch := make(chan Sample)
		close(ch)
		return nil, ch, func() {}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	live, cancel = r.subs.Subscribe()
	return r.historyLocked(), live, cancel
}

// Close stops the sampler goroutine, takes one final sample, flushes
// the sink, and closes all subscriber channels. Idempotent.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.stopLoop()
	r.SampleNow()
	err := r.Flush()
	r.mu.Lock()
	r.subs.Close()
	r.mu.Unlock()
	return err
}

// Kill stops the sampler and closes subscribers without a final sample
// or flush — the same-process stand-in for a process crash, used by
// the scheduler's kill path so tests exercise real torn-tail recovery.
func (r *Recorder) Kill() {
	if r == nil {
		return
	}
	r.stopLoop()
	r.mu.Lock()
	r.subs.Close()
	r.mu.Unlock()
}

func (r *Recorder) stopLoop() {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		if r.interval > 0 {
			close(r.stop)
		}
	}
	r.mu.Unlock()
	<-r.done
}
