package converse

import (
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

// checkPop pops q and m and fails unless both give the same key, q holds
// as many keys as m, and the slot the pop vacated reads as the zero key.
func checkPop(t *testing.T, q *queue, m *queueModel, what string) {
	t.Helper()
	got, want := q.pop(), (*m)[0]
	*m = (*m)[1:]
	if got != want {
		t.Fatalf("%s: popped %+v, stable sort says %+v", what, got, want)
	}
	if len(*q) != len(*m) {
		t.Fatalf("%s: queue holds %d keys, want %d", what, len(*q), len(*m))
	}
	if vacated := (*q)[:cap(*q)][len(*q)]; vacated != (key{}) {
		t.Fatalf("%s: vacated slot holds %+v", what, vacated)
	}
}

// tieKey is a key that ties heavily on hi (three values) and on the kind
// bits of lo, with its sequence number seq in lo like the machine's.
func tieKey(rng *xrand.RNG, seq uint64) key {
	return key{hi: uint64(rng.Intn(3)), lo: uint64(rng.Intn(3))<<kindShift | seq, arg: uint32(seq)}
}

// TestQueuePopsInStableSortOrder drives random interleaved push/pop
// sequences of tie-heavy keys, with sequence numbers rising in push
// order, and then drains the queue with pushes still interleaved. It runs
// at two scales: many short runs of a few hundred operations, and runs
// that grow the heap past 10k live keys, the event heap's size in a
// 1024-PE ApoA-I simulation (~13k at peak). Every pop must return the
// head of a stable sort of the live keys on (hi, kind), and every slot a
// pop vacates must read as the zero key.
func TestQueuePopsInStableSortOrder(t *testing.T) {
	rng := xrand.New(7)
	for _, c := range []struct {
		name          string
		trials, grow  int // grow: operations with pushes favored 2:1
		maxLive, peak int // no pushes at maxLive live keys; peak: the least peak
	}{
		{"short", 50, 400, 400, 0},
		{"des-scale", 2, 40000, 20000, 10000},
	} {
		for trial := 0; trial < c.trials; trial++ {
			var q queue
			var m queueModel
			seq, peak := uint64(0), 0
			push := func() {
				seq++
				k := tieKey(rng, seq)
				q.push(k)
				m.push(k)
				peak = max(peak, len(m))
			}
			for op := 0; op < c.grow; op++ {
				if len(m) == 0 || len(m) < c.maxLive && rng.Intn(3) > 0 {
					push()
				} else {
					checkPop(t, &q, &m, c.name)
				}
			}
			for len(m) > 0 {
				if rng.Intn(4) == 0 {
					push()
				} else {
					checkPop(t, &q, &m, c.name)
				}
			}
			if peak < c.peak {
				t.Fatalf("%s trial %d: heap peaked at %d live keys, want ≥ %d", c.name, trial, peak, c.peak)
			}
		}
	}
}

// TestQueueSmallHeapsAllOrders pushes every permutation of up to seven
// distinct keys and pops them all. It covers the bottom-up pop's edge
// cases: a heap of one to three keys, a last parent with one child (an
// even count left after the pop) at depths one and two, and the old last
// key sifting up zero, one or two levels from the leaf the hole reached.
func TestQueueSmallHeapsAllOrders(t *testing.T) {
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
			var q queue
			for _, i := range perm {
				q.push(keys[i])
			}
			for want := 0; want < n; want++ {
				got := q.pop()
				if got != keys[want] {
					t.Fatalf("n=%d push order %v: pop %d returned %+v, want %+v", n, perm, want, got, keys[want])
				}
				if len(q) != n-want-1 || q[:cap(q)][len(q)] != (key{}) {
					t.Fatalf("n=%d push order %v: after pop %d the queue is %v", n, perm, want, q[:cap(q)])
				}
			}
			if !nextPerm(perm) {
				break
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
// pointers through drops, duplicates and a crash that wipes a queue of
// waiting messages, then checks that every message slot and every
// vacated queue slot reads as the zero value: nothing the machine has
// finished with stays reachable from it.
func TestVacatedSlotsHoldNoPayload(t *testing.T) {
	m := NewMachine(4, testNet)
	m.SetFaultPlan(&FaultPlan{Seed: 3, DropProb: 0.2, DupProb: 0.2, Crashes: []Crash{{PE: 1, At: 20e-6, Down: 30e-6}}})
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
	start := 3
	m.Inject(0, fan, &start, 0, 0)
	m.Run()
	if m.Stats.Crashes != 1 || m.Stats.Lost == 0 {
		t.Fatalf("crash did not strike queued work: %+v", m.Stats)
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
		queues = append(queues, pe.ready)
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
