// Package fanout delivers published items to live subscribers over
// bounded channels without ever blocking the publisher: a subscriber a
// full buffer behind misses items, and the misses are counted. It backs
// every live stream — a gonamdd job's events and an ftdc.Recorder's
// samples. A Fanout keeps no history: its owner keeps the replay buffer
// and calls Publish and Subscribe under the lock guarding it, so a
// replay and the live items after it have no gap and no overlap.
package fanout

import "sync"

// Buffer is each subscriber's channel capacity: as many items as a job's
// event replay ring holds, so a reader that stalls briefly (a slow
// client, a GC pause) loses nothing.
const Buffer = 256

// Fanout is a set of subscriber channels. The zero value is ready to
// use; it is safe for concurrent use.
type Fanout[T any] struct {
	mu      sync.Mutex
	subs    map[chan T]struct{}
	closed  bool
	dropped int64
}

// Publish offers v to every subscriber without blocking; a subscriber
// whose buffer is full misses v, and the miss is counted. After Close,
// Publish does nothing.
func (f *Fanout[T]) Publish(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for ch := range f.subs {
		select {
		case ch <- v:
		default:
			f.dropped++
		}
	}
}

// Subscribe adds a subscriber and returns its channel and a cancel func
// that removes it and closes the channel; cancel may be called any
// number of times, before or after Close. After Close the channel comes
// back already closed.
func (f *Fanout[T]) Subscribe() (<-chan T, func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan T, Buffer)
	if f.closed {
		close(ch)
		return ch, func() {}
	}
	if f.subs == nil {
		f.subs = make(map[chan T]struct{})
	}
	f.subs[ch] = struct{}{}
	return ch, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if _, ok := f.subs[ch]; ok {
			delete(f.subs, ch)
			close(ch)
		}
	}
}

// Close ends every subscriber's stream: their channels close once they
// have drained what was delivered. Idempotent.
func (f *Fanout[T]) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for ch := range f.subs {
		delete(f.subs, ch)
		close(ch)
	}
}

// Closed reports whether Close has been called.
func (f *Fanout[T]) Closed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// Len reports the number of live subscribers — an owner checks it to
// skip building an item nobody would receive.
func (f *Fanout[T]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// Dropped reports how many deliveries were lost to full buffers.
func (f *Fanout[T]) Dropped() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}
