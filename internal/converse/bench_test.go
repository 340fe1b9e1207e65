package converse

import (
	"fmt"
	"math"
	"testing"

	"gonamd/internal/trace"
	"gonamd/internal/xrand"
)

// BenchmarkEventThroughput measures the discrete-event core: a message
// ring across 64 PEs (one handler execution + one remote send per event).
// It keeps one event in flight, so it times the loop, not the heap; see
// BenchmarkQueue for that.
func BenchmarkEventThroughput(b *testing.B) {
	m := NewMachine(64, NetworkModel{
		Latency: 10e-6, PerByte: 3e-9, SendOverhead: 20e-6,
		SendPerByte: 5e-9, RecvOverhead: 10e-6,
	})
	remaining := b.N
	var relay HandlerID
	relay = m.RegisterHandler("relay", func(ctx *Ctx, payload any, size int) {
		ctx.Charge(1e-6, trace.CatOther)
		if remaining > 0 {
			remaining--
			ctx.Send((ctx.PE()+1)%64, relay, nil, 256, 0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	m.Inject(0, relay, nil, 256, 0)
	m.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkQueue times one pop and one push of the event heap held at
// the sizes it has in a 1024-PE ApoA-I simulation: ~2.8k keys on average
// and ~12.9k at peak. Keys follow the simulation's tie pattern: each
// push is the popped event's time plus either nothing (about half of
// them: work at the same instant) or one of a few message and execution
// delays, as a completion or an arrival, with a rising sequence number.
func BenchmarkQueue(b *testing.B) {
	const tab = 1 << 12
	rng := xrand.New(1)
	delay := make([]float64, tab)
	kind := make([]uint64, tab)
	lat := []float64{2e-6, 1e-5, 4e-5, 2e-4}
	for i := range delay {
		if rng.Intn(100) >= 46 {
			delay[i] = lat[rng.Intn(len(lat))]
		}
		kind[i] = uint64(rng.Intn(2))
	}
	for _, n := range []int{3000, 13000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			var q queue
			seq := uint64(0)
			event := func(t float64, i int) key {
				seq++
				return key{hi: math.Float64bits(t), lo: kind[i%tab]<<kindShift | seq}
			}
			for i := 0; i < n; i++ {
				q.push(event(rng.Float64()*4e-4, i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := q.pop()
				q.push(event(k.time()+delay[i%tab], i))
			}
		})
	}

	// A PE's ready queue at the two shapes des-scale gives it: ~17k live
	// keys, every one arriving in (prio, seq) order, on the one PE of the
	// sequential run; ~21 live keys, ~80 % in order, on a PE of a 1024-PE
	// run. An in-order push keeps or raises the top priority; a late one
	// lands one to three priorities below it. lane-% reports the share of
	// pushes that went on the lane.
	late := make([]int, tab)
	for i := range late {
		late[i] = rng.Intn(100)
	}
	for _, c := range []struct{ n, inOrder int }{{17000, 100}, {21, 80}} {
		b.Run(fmt.Sprintf("ready/keys=%d/inorder=%d", c.n, c.inOrder), func(b *testing.B) {
			var r readyQueue
			seq, top, onLane := uint64(0), int64(0), 0
			push := func(i int) {
				seq++
				prio := top
				if late[i%tab] >= c.inOrder {
					prio -= 1 + int64(kind[i%tab]) + int64(i%2)
				} else if kind[i%tab] == 1 {
					top++
					prio = top
				}
				n := len(r.lane)
				r.push(readyKey(prio, seq, 0))
				if len(r.lane) > n {
					onLane++
				}
			}
			for i := 0; i < c.n; i++ {
				push(i)
			}
			onLane = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.pop()
				push(i)
			}
			b.ReportMetric(100*float64(onLane)/float64(b.N), "lane-%")
		})
	}
}
