package serve

import (
	"testing"
	"time"

	"gonamd/internal/fanout"
)

// TestEventFanoutDropPath drives a job's event broker past the buffers
// of two subscribers that never read: publishing never blocks, each
// subscriber keeps exactly the first fanout.Buffer events and loses the
// rest, the drop count is the number lost, close ends both streams,
// cancel after close does nothing, and a late subscriber gets the
// replay ring and an already-closed channel. TestSampleFanoutDropPath
// (internal/ftdc) runs the same cases on telemetry samples.
func TestEventFanoutDropPath(t *testing.T) {
	const extra = 40
	var b broker
	var lives []<-chan Event
	var cancels []func()
	for i := 0; i < 2; i++ {
		_, live, cancel := b.subscribe()
		lives, cancels = append(lives, live), append(cancels, cancel)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < fanout.Buffer+extra; i++ {
			b.publish(Event{Type: "status", Job: "j"})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked on subscribers that never read")
	}
	if got, want := b.fan.Dropped(), int64(2*extra); got != want {
		t.Errorf("dropped = %d, want %d (%d lost by each of 2 subscribers)", got, want, extra)
	}

	b.close()
	for s, live := range lives {
		n := 0
		for ev := range live { // ends only if close ended the stream
			n++
			if ev.Seq != int64(n) {
				t.Fatalf("subscriber %d: event %d has seq %d: kept events must be the first ones", s, n, ev.Seq)
			}
		}
		if n != fanout.Buffer {
			t.Errorf("subscriber %d received %d events, want the buffer's %d", s, n, fanout.Buffer)
		}
	}
	for _, cancel := range cancels {
		cancel()
		cancel()
	}

	replay, live, cancel := b.subscribe()
	defer cancel()
	if len(replay) != ringSize || replay[len(replay)-1].Seq != fanout.Buffer+extra {
		t.Errorf("late replay has %d events ending at seq %d, want %d ending at %d",
			len(replay), replay[len(replay)-1].Seq, ringSize, fanout.Buffer+extra)
	}
	select {
	case _, ok := <-live:
		if ok {
			t.Error("subscribing after close returned a channel with an item")
		}
	case <-time.After(5 * time.Second):
		t.Error("subscribing after close returned an open channel")
	}
}
