package fanout

import (
	"sync"
	"testing"
)

// TestConcurrentPublishSubscribeCancelClose runs publishers, readers
// that cancel part-way, and Close at once (meant for -race): every
// reader's channel ends closed, no send hits a closed channel (which
// would panic), and delivered plus dropped never exceeds what was
// offered. The per-owner cases (drops, replay after close) are
// TestEventFanoutDropPath in internal/serve and TestSampleFanoutDropPath
// in internal/ftdc.
func TestConcurrentPublishSubscribeCancelClose(t *testing.T) {
	var f Fanout[int]
	var wg sync.WaitGroup
	var mu sync.Mutex
	received := 0
	for r := 0; r < 8; r++ {
		live, cancel := f.Subscribe()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			n := 0
			for range live {
				if n++; n == 10*r {
					cancel()
				}
			}
			cancel() // after close or an earlier cancel: a no-op
			mu.Lock()
			received += n
			mu.Unlock()
		}(r)
	}
	var pubs sync.WaitGroup
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < 500; i++ {
				f.Publish(i)
			}
		}()
	}
	pubs.Wait()
	f.Close()
	f.Close()
	wg.Wait()
	if f.Len() != 0 || !f.Closed() {
		t.Errorf("after Close: %d subscribers, closed %v", f.Len(), f.Closed())
	}
	if offered := int64(8 * 4 * 500); int64(received)+f.Dropped() > offered {
		t.Errorf("received %d + dropped %d exceeds %d offered", received, f.Dropped(), offered)
	}
}
