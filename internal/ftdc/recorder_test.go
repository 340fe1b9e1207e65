package ftdc

import (
	"bytes"
	"testing"
	"time"

	"gonamd/internal/fanout"
)

func manualRecorder() *Recorder {
	return NewRecorder(Options{
		Schema:      EngineSchema(),
		Interval:    0, // manual SampleNow
		StepField:   FieldSteps,
		RateField:   FieldStepsPerSec,
		RuntimeBase: FieldHeapAlloc,
	})
}

func TestRecorderStoreSample(t *testing.T) {
	r := manualRecorder()
	defer r.Close()
	r.StoreInt(FieldSteps, 42)
	r.Store(FieldImbalance, 0.25)
	r.SampleNow()
	s, ok := r.Last()
	if !ok {
		t.Fatal("no sample after SampleNow")
	}
	if s.Values[FieldSteps] != 42 || s.Values[FieldImbalance] != 0.25 {
		t.Fatalf("sample = %+v", s.Values)
	}
	if s.Values[FieldGoroutines] < 1 {
		t.Fatalf("goroutines = %v, want ≥ 1", s.Values[FieldGoroutines])
	}
	if s.Values[FieldTotalAlloc] <= 0 {
		t.Fatalf("total_alloc = %v, want > 0", s.Values[FieldTotalAlloc])
	}
}

func TestRecorderRate(t *testing.T) {
	r := manualRecorder()
	defer r.Close()
	r.StoreInt(FieldSteps, 0)
	r.SampleNow()
	time.Sleep(20 * time.Millisecond)
	r.StoreInt(FieldSteps, 100)
	r.SampleNow()
	s, _ := r.Last()
	rate := s.Values[FieldStepsPerSec]
	if rate <= 0 || rate > 100/0.02*2 {
		t.Fatalf("steps/sec = %v, want positive and sane", rate)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := manualRecorder()
	defer r.Close()
	for i := 0; i < ringSize+6; i++ {
		r.StoreInt(FieldSteps, int64(i))
		r.SampleNow()
	}
	h := r.History()
	if len(h) != ringSize {
		t.Fatalf("history len %d, want ring size %d", len(h), ringSize)
	}
	for i, s := range h {
		if want := float64(6 + i); s.Values[FieldSteps] != want {
			t.Fatalf("history[%d] steps = %v, want %v (oldest-first after wrap)", i, s.Values[FieldSteps], want)
		}
	}
}

func TestRecorderSubscribeReplayAndLive(t *testing.T) {
	r := manualRecorder()
	r.StoreInt(FieldSteps, 1)
	r.SampleNow()
	replay, live, cancel := r.Subscribe()
	defer cancel()
	if len(replay) != 1 || replay[0].Values[FieldSteps] != 1 {
		t.Fatalf("replay = %+v", replay)
	}
	r.StoreInt(FieldSteps, 2)
	r.SampleNow()
	select {
	case s := <-live:
		if s.Values[FieldSteps] != 2 {
			t.Fatalf("live sample steps = %v, want 2", s.Values[FieldSteps])
		}
	case <-time.After(time.Second):
		t.Fatal("no live sample delivered")
	}
	r.Close()
	select {
	case _, ok := <-live:
		if ok {
			// Close takes a final sample; the channel must end after it.
			if _, ok := <-live; ok {
				t.Fatal("live channel still open after Close")
			}
		}
	case <-time.After(time.Second):
		t.Fatal("live channel not closed after Close")
	}
}

func TestRecorderTickerSampling(t *testing.T) {
	r := NewRecorder(Options{
		Schema:    EngineSchema(),
		Interval:  2 * time.Millisecond,
		StepField: FieldSteps, RateField: FieldStepsPerSec,
		RuntimeBase: FieldHeapAlloc,
	})
	r.StoreInt(FieldSteps, 7)
	deadline := time.Now().Add(2 * time.Second)
	for r.SampleCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r.SampleCount() == 0 {
		t.Fatal("ticker sampler took no samples")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	s, _ := r.Last()
	if s.Values[FieldSteps] != 7 {
		t.Fatalf("final sample steps = %v, want 7", s.Values[FieldSteps])
	}
	// Idempotent close.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderSinkReceivesSamples(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, EngineSchema())
	if err != nil {
		t.Fatal(err)
	}
	r := manualRecorder()
	r.SetSink(w)
	for i := 1; i <= 3; i++ {
		r.StoreInt(FieldSteps, int64(i*10))
		r.SampleNow()
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	_, samples, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// 3 manual samples + the final Close sample.
	if len(samples) != 4 {
		t.Fatalf("%d samples through sink, want 4", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Values[FieldSteps] < samples[i-1].Values[FieldSteps] {
			t.Fatal("steps not monotone through sink")
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Store(0, 1)
	r.StoreInt(1, 2)
	r.SampleNow()
	if r.Load(0) != 0 || r.SampleCount() != 0 {
		t.Fatal("nil recorder not inert")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r.Kill()
	replay, live, cancel := r.Subscribe()
	if replay != nil {
		t.Fatal("nil recorder replay not empty")
	}
	if _, ok := <-live; ok {
		t.Fatal("nil recorder live channel not closed")
	}
	cancel()
}

func TestSampleNowZeroAlloc(t *testing.T) {
	r := manualRecorder()
	defer r.Close()
	r.StoreInt(FieldSteps, 1)
	r.SampleNow() // warm the rate state
	allocs := testing.AllocsPerRun(100, func() {
		r.SampleNow()
	})
	if allocs != 0 {
		t.Fatalf("SampleNow allocs = %v, want 0", allocs)
	}
}

func TestStoreZeroAlloc(t *testing.T) {
	r := manualRecorder()
	defer r.Close()
	allocs := testing.AllocsPerRun(100, func() {
		r.StoreInt(FieldSteps, 123)
		r.Store(FieldImbalance, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("Store allocs = %v, want 0", allocs)
	}
}

func TestRecorderKillAbandonsBuffered(t *testing.T) {
	r := manualRecorder()
	r.StoreInt(FieldSteps, 5)
	r.SampleNow()
	r.Kill()
	// No panic on further calls, no new samples.
	r.SampleNow()
	if r.SampleCount() != 1 {
		t.Fatalf("samples after Kill = %d, want 1", r.SampleCount())
	}
}

// TestSampleFanoutDropPath runs TestEventFanoutDropPath's cases
// (internal/serve) on telemetry samples: two subscribers that never
// read, a sampler that never blocks on them, exactly the first
// fanout.Buffer samples kept, the drop count equal to the number lost,
// Close ending both streams, cancel after Close a no-op, and a late
// subscriber handed the ring and an already-closed channel. The
// subscribers lose more samples than the ring holds, so the ring wraps.
func TestSampleFanoutDropPath(t *testing.T) {
	const extra = ringSize
	r := manualRecorder()
	var lives []<-chan Sample
	var cancels []func()
	for i := 0; i < 2; i++ {
		_, live, cancel := r.Subscribe()
		lives, cancels = append(lives, live), append(cancels, cancel)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= fanout.Buffer+extra; i++ {
			r.StoreInt(FieldSteps, int64(i))
			r.SampleNow()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SampleNow blocked on subscribers that never read")
	}
	if got, want := r.subs.Dropped(), int64(2*extra); got != want {
		t.Errorf("dropped = %d, want %d (%d lost by each of 2 subscribers)", got, want, extra)
	}

	r.Close() // its final sample finds both buffers full too
	for s, live := range lives {
		n := 0
		for smp := range live { // ends only if Close ended the stream
			n++
			if smp.Values[FieldSteps] != float64(n) {
				t.Fatalf("subscriber %d: sample %d has steps %v: kept samples must be the first ones", s, n, smp.Values[FieldSteps])
			}
		}
		if n != fanout.Buffer {
			t.Errorf("subscriber %d received %d samples, want the buffer's %d", s, n, fanout.Buffer)
		}
	}
	for _, cancel := range cancels {
		cancel()
		cancel()
	}

	replay, live, cancel := r.Subscribe()
	defer cancel()
	if len(replay) != ringSize || replay[ringSize-1].Values[FieldSteps] != fanout.Buffer+extra {
		t.Errorf("late replay has %d samples ending at steps %v, want %d ending at %d",
			len(replay), replay[len(replay)-1].Values[FieldSteps], ringSize, fanout.Buffer+extra)
	}
	select {
	case _, ok := <-live:
		if ok {
			t.Error("subscribing after Close returned a channel with an item")
		}
	case <-time.After(5 * time.Second):
		t.Error("subscribing after Close returned an open channel")
	}
}
