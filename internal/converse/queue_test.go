package converse

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"gonamd/internal/trace"
	"gonamd/internal/xrand"
)

// queueModel is the reference for the heap: the live keys stably sorted
// on (hi, kind), ties in push order — the order the scheduler's
// determinism rests on.
type queueModel []key

func (m *queueModel) push(k key) {
	i := sort.Search(len(*m), func(i int) bool {
		o := (*m)[i]
		return o.hi > k.hi || o.hi == k.hi && o.lo>>kindShift > k.lo>>kindShift
	})
	*m = slices.Insert(*m, i, k)
}

// queueUnderTest is a queue the model tests drive: the event heap or a
// PE's ready queue.
type queueUnderTest interface {
	push(key)
	pop() key
	size() int
	// vacated returns an error naming a slot outside the live keys that
	// does not read as the zero key; full widens the search from the
	// slots the last pop may have vacated to every slot of the backing
	// arrays.
	vacated(full bool) error
}

type heapUnderTest struct{ queue }

func (h *heapUnderTest) size() int { return len(h.queue) }

func (h *heapUnderTest) vacated(full bool) error {
	n := len(h.queue)
	end := min(n+1, cap(h.queue))
	if full {
		end = cap(h.queue)
	}
	return zeroSlots("heap", h.queue[:end], n)
}

// readyUnderTest also counts the pops that moved the lane's live keys to
// its front, so a test can tell it reached the compaction point, and
// remembers the lane's length before the last pop, the bound of the
// slots that pop may have vacated.
type readyUnderTest struct {
	readyQueue
	compactions, laneLen int
}

func (r *readyUnderTest) size() int { return r.len() }

func (r *readyUnderTest) pop() key {
	head := r.head
	r.laneLen = len(r.lane)
	k := r.readyQueue.pop()
	if r.head < head && len(r.lane) > 0 {
		r.compactions++
	}
	return k
}

func (r *readyUnderTest) vacated(full bool) error {
	// A pop vacates the lane slot before head, the slots past the lane's
	// end when it drains or compacts, or the heap slot past its end.
	laneFrom, laneEnd := max(r.head-1, 0), min(max(r.laneLen, len(r.lane)), cap(r.lane))
	heapEnd := min(len(r.heap)+1, cap(r.heap))
	if full {
		laneFrom, laneEnd, heapEnd = 0, cap(r.lane), cap(r.heap)
	}
	if err := zeroSlots("lane", r.lane[:r.head], laneFrom); err != nil {
		return err
	}
	if err := zeroSlots("lane", r.lane[:laneEnd], len(r.lane)); err != nil {
		return err
	}
	return zeroSlots("heap", r.heap[:heapEnd], len(r.heap))
}

// zeroSlots returns an error naming the first slot of s from index from
// on that does not read as the zero key.
func zeroSlots(what string, s []key, from int) error {
	for i := from; i < len(s); i++ {
		if s[i] != (key{}) {
			return fmt.Errorf("%s slot %d holds %+v", what, i, s[i])
		}
	}
	return nil
}

// checkPop pops q and m and fails unless both give the same key, q holds
// as many keys as m, and the slots the pop vacated read as the zero key
// (every slot outside the live keys, with full set).
func checkPop(t *testing.T, q queueUnderTest, m *queueModel, full bool, what string) {
	t.Helper()
	got, want := q.pop(), (*m)[0]
	*m = (*m)[1:]
	if got != want {
		t.Fatalf("%s: popped %+v, stable sort says %+v", what, got, want)
	}
	if q.size() != len(*m) {
		t.Fatalf("%s: queue holds %d keys, want %d", what, q.size(), len(*m))
	}
	if err := q.vacated(full); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// tieKey is a key that ties heavily on hi (three values) and on the kind
// bits of lo, with its sequence number seq in lo like the machine's.
func tieKey(rng *xrand.RNG, seq uint64) key {
	return key{hi: uint64(rng.Intn(3)), lo: uint64(rng.Intn(3))<<kindShift | seq, arg: uint32(seq)}
}

// queueKinds are the queues the model tests drive, each with the keys it
// sees in a simulation. The event heap gets tie-heavy event keys. A ready
// queue gets (prio, seq) keys in runs: the priority mostly holds or
// rises, so most keys arrive in order and go on the lane, and one push
// in eight lands one to three priorities below it, so the heap fills too.
var queueKinds = []struct {
	name string
	new  func() queueUnderTest
	keys func(rng *xrand.RNG) func(seq uint64) key
}{
	{"heap", func() queueUnderTest { return &heapUnderTest{} }, func(rng *xrand.RNG) func(uint64) key {
		return func(seq uint64) key { return tieKey(rng, seq) }
	}},
	{"ready", func() queueUnderTest { return &readyUnderTest{} }, func(rng *xrand.RNG) func(uint64) key {
		prio := int64(0)
		return func(seq uint64) key {
			switch r := rng.Intn(8); {
			case r == 0:
				return readyKey(prio-1-int64(rng.Intn(3)), seq, uint32(seq))
			case r < 3:
				prio++
			}
			return readyKey(prio, seq, uint32(seq))
		}
	}},
}

// TestQueuePopsInStableSortOrder drives random interleaved push/pop
// sequences, with sequence numbers rising in push order, and then drains
// the queue with pushes still interleaved. It runs at two scales: many
// short runs of a few hundred operations, and runs that grow the queue
// past 10k live keys — the event heap's size in a 1024-PE ApoA-I
// simulation (~13k at peak), and about the ready queue's in a one-PE one
// (~17k). Every pop must return the head of a stable sort of the live
// keys on (hi, kind), and every slot a pop vacates must read as the zero
// key. The ready queue must have used its lane and its heap and reached
// the lane's compaction point.
func TestQueuePopsInStableSortOrder(t *testing.T) {
	for _, kind := range queueKinds {
		rng := xrand.New(7)
		for _, c := range []struct {
			name          string
			trials, grow  int // grow: operations with pushes favored 2:1
			maxLive, peak int // no pushes at maxLive live keys; peak: the least peak
		}{
			{"short", 50, 400, 400, 0},
			{"des-scale", 2, 40000, 20000, 10000},
		} {
			what := kind.name + " " + c.name
			for trial := 0; trial < c.trials; trial++ {
				q := kind.new()
				var m queueModel
				next := kind.keys(rng)
				seq, peak, op := uint64(0), 0, 0
				push := func() {
					seq++
					k := next(seq)
					q.push(k)
					m.push(k)
					peak = max(peak, len(m))
				}
				pop := func() {
					// A full scan every pop would make the large runs
					// quadratic.
					op++
					checkPop(t, q, &m, len(m) < 512 || op%256 == 0, what)
				}
				for i := 0; i < c.grow; i++ {
					if len(m) == 0 || len(m) < c.maxLive && rng.Intn(3) > 0 {
						push()
					} else {
						pop()
					}
				}
				for len(m) > 0 {
					if rng.Intn(4) == 0 {
						push()
					} else {
						pop()
					}
				}
				if peak < c.peak {
					t.Fatalf("%s trial %d: queue peaked at %d live keys, want ≥ %d", what, trial, peak, c.peak)
				}
				if err := q.vacated(true); err != nil {
					t.Fatalf("%s trial %d: drained queue: %v", what, trial, err)
				}
				if r, ok := q.(*readyUnderTest); ok && (r.compactions == 0 || cap(r.lane) == 0 || cap(r.heap) == 0) {
					t.Fatalf("%s trial %d: lane capacity %d, heap capacity %d, %d compactions; want all > 0",
						what, trial, cap(r.lane), cap(r.heap), r.compactions)
				}
			}
		}
	}
}

// TestQueueSmallHeapsAllOrders pushes every permutation of up to seven
// distinct keys and pops them all. It covers the bottom-up pop's edge
// cases: a heap of one to three keys, a last parent with one child (an
// even count left after the pop) at depths one and two, and the old last
// key sifting up zero, one or two levels from the leaf the hole reached.
// On a ready queue the permutations split the keys between the lane and
// the heap every way a push order can.
func TestQueueSmallHeapsAllOrders(t *testing.T) {
	for _, kind := range queueKinds {
		for n := 1; n <= 7; n++ {
			keys := make([]key, n)
			for i := range keys {
				// Distinct on hi for some, on lo only for others.
				keys[i] = key{hi: uint64(i / 2), lo: uint64(i%2)<<kindShift | uint64(i+1), arg: uint32(i)}
			}
			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
			}
			for {
				q := kind.new()
				for _, i := range perm {
					q.push(keys[i])
				}
				for want := 0; want < n; want++ {
					got := q.pop()
					if got != keys[want] {
						t.Fatalf("%s n=%d push order %v: pop %d returned %+v, want %+v", kind.name, n, perm, want, got, keys[want])
					}
					if q.size() != n-want-1 {
						t.Fatalf("%s n=%d push order %v: after pop %d the queue holds %d keys", kind.name, n, perm, want, q.size())
					}
					if err := q.vacated(true); err != nil {
						t.Fatalf("%s n=%d push order %v: after pop %d: %v", kind.name, n, perm, want, err)
					}
				}
				if !nextPerm(perm) {
					break
				}
			}
		}
	}
}

// nextPerm steps p to its next permutation in lexicographic order and
// reports whether there was one.
func nextPerm(p []int) bool {
	i := len(p) - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(p) - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	slices.Reverse(p[i+1:])
	return true
}

// TestVacatedSlotsHoldNoPayload runs a program whose payloads are
// pointers through a ready queue holding waiting messages on its lane
// and in its heap, then checks that every message slot and every
// vacated queue slot reads as the zero value: nothing the machine has
// finished with stays reachable from it.
func TestVacatedSlotsHoldNoPayload(t *testing.T) {
	m := NewMachine(4, testNet)
	var fan HandlerID
	fan = m.RegisterHandler("fan", func(ctx *Ctx, payload any, size int) {
		n := *payload.(*int)
		ctx.Charge(5e-6, trace.CatOther)
		if n > 0 {
			for pe := 0; pe < ctx.NumPE(); pe++ {
				next := n - 1
				ctx.Send(pe, fan, &next, 64, int64(n%2))
			}
		}
	})
	// PE 1 runs hold from time 0 to past 40 µs, so the messages injected
	// behind it wait: 5, 6 and 7 on the lane, 1 and 2 in the heap. probe,
	// an immediate handler that arm sends to PE 1, looks at PE 1's queue
	// while hold still runs; a busy PE pops nothing, so both parts of the
	// queue still hold keys then, and every key is popped later.
	hold := m.RegisterHandler("hold", func(ctx *Ctx, payload any, size int) {
		ctx.Charge(40e-6, trace.CatOther)
	})
	var probed struct {
		at         float64
		busy       bool
		lane, heap int
	}
	probe := m.RegisterImmediateHandler("probe", func(ctx *Ctx, payload any, size int) {
		r := &m.pes[1].ready
		probed.at, probed.busy, probed.lane, probed.heap = ctx.Now(), m.pes[1].busy, len(r.lane)-r.head, len(r.heap)
	})
	arm := m.RegisterHandler("arm", func(ctx *Ctx, payload any, size int) {
		ctx.Charge(10e-6, trace.CatOther)
		ctx.Send(1, probe, nil, 0, 0)
	})
	m.Inject(1, hold, nil, 0, 0)
	last := 0
	for _, prio := range []int64{5, 6, 7, 1, 2} {
		m.Inject(1, fan, &last, 0, prio)
	}
	m.Inject(2, arm, nil, 0, 0)
	start := 3
	m.Inject(0, fan, &start, 0, 0)
	m.Run()
	if !(probed.at > 0 && probed.at < 40e-6) || !probed.busy || probed.lane == 0 || probed.heap == 0 {
		t.Fatalf("while hold ran PE 1's queue was %+v; want it busy with keys on the lane and in the heap", probed)
	}
	if len(m.free) != len(m.msgs) {
		t.Errorf("%d of %d message slots still taken after quiescence", len(m.msgs)-len(m.free), len(m.msgs))
	}
	for i, mg := range m.msgs {
		if mg != (msg{}) {
			t.Errorf("message slot %d holds %+v", i, mg)
		}
	}
	queues := []queue{m.events}
	for _, pe := range m.pes {
		queues = append(queues, pe.ready.lane, pe.ready.heap)
	}
	for qi, q := range queues {
		for i, k := range q[:cap(q)] {
			if k != (key{}) {
				t.Errorf("queue %d slot %d holds %+v", qi, i, k)
			}
		}
	}
	if c := m.ctx.outbox[:cap(m.ctx.outbox)]; len(c) == 0 {
		t.Error("outbox scratch never used")
	} else {
		for i, mg := range c {
			if mg != (msg{}) {
				t.Errorf("outbox slot %d holds %+v", i, mg)
			}
		}
	}
}

// TestRunZeroAllocsSteadyState: once the queues, the message slab and
// the execution scratch have grown to the program's working set, the
// event loop allocates nothing — not per event, not per execution, not
// per message. The program is the 64-PE relay ring of
// BenchmarkEventThroughput with a nil payload.
func TestRunZeroAllocsSteadyState(t *testing.T) {
	const hops = 1000
	m := NewMachine(64, testNet)
	remaining := 0
	var relay HandlerID
	relay = m.RegisterHandler("relay", func(ctx *Ctx, payload any, size int) {
		ctx.Charge(1e-6, trace.CatOther)
		if remaining > 0 {
			remaining--
			ctx.Send((ctx.PE()+1)%ctx.NumPE(), relay, nil, 256, 0)
		}
	})
	allocs := testing.AllocsPerRun(20, func() {
		remaining = hops
		m.Inject(0, relay, nil, 256, 0)
		m.Run()
	})
	if remaining != 0 {
		t.Fatalf("ring stopped with %d hops left", remaining)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per %d-hop ring run, want 0", allocs, hops)
	}
}
