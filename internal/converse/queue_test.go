package converse

import (
	"sort"
	"testing"

	"gonamd/internal/trace"
	"gonamd/internal/xrand"
)

// TestQueuePopsInStableSortOrder drives random interleaved push/pop
// sequences whose keys tie heavily on hi (three values) and on the kind
// bits of lo, with sequence numbers rising in push order like the
// machine's. Every pop must return the head of a stable sort of the live
// keys on (hi, kind) — the order the scheduler's determinism rests on —
// and every slot a pop vacates must read as the zero key.
func TestQueuePopsInStableSortOrder(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		var q queue
		var live []key // pushed and not yet popped, in push order
		seq := uint64(0)
		for op := 0; op < 400; op++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				seq++
				k := key{hi: uint64(rng.Intn(3)), lo: uint64(rng.Intn(3))<<kindShift | seq, arg: uint32(seq)}
				q.push(k)
				live = append(live, k)
				continue
			}
			sort.SliceStable(live, func(i, j int) bool {
				if live[i].hi != live[j].hi {
					return live[i].hi < live[j].hi
				}
				return live[i].lo>>kindShift < live[j].lo>>kindShift
			})
			got := q.pop()
			if got != live[0] {
				t.Fatalf("trial %d op %d: popped %+v, stable sort says %+v", trial, op, got, live[0])
			}
			live = live[1:]
			if len(q) != len(live) {
				t.Fatalf("queue holds %d keys, want %d", len(q), len(live))
			}
			if vacated := q[:cap(q)][len(q)]; vacated != (key{}) {
				t.Fatalf("vacated slot holds %+v", vacated)
			}
		}
	}
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
