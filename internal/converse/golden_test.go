package converse

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gonamd/internal/trace"
	"gonamd/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenProgram runs a seeded 64-PE message storm built to stress the
// scheduler's tie-breaking: every charge and network cost is a small
// multiple of a power-of-two time unit, so virtual times add up exactly
// and completions and arrivals tie on the same instant; priorities come
// from a small set and half the traffic aims at eight hot PEs, so ready
// queues hold many equal-priority messages. It uses every send path:
// Send, SendFree (remote and to the sender's own PE), Multicast and an
// immediate handler. Handlers draw their decisions from one stream in
// execution order, so any change in pop order changes the rest of the
// run.
func goldenProgram() *Machine {
	const npe = 64
	const u = 1.0 / (1 << 20)
	m := NewMachine(npe, NetworkModel{
		Latency: 2 * u, SendOverhead: u, RecvOverhead: u,
		LocalSendOverhead: u / 4, LocalRecvOverhead: u / 4,
		MulticastOptimized: true, MulticastPerDest: u / 8,
	})
	m.Trace = trace.NewLog()
	rng := xrand.New(2024)
	durs := []float64{u, 2 * u, 4 * u}
	prios := []int64{0, 1, 2}
	dest := func() int {
		if rng.Intn(2) == 0 {
			return rng.Intn(8)
		}
		return rng.Intn(npe)
	}
	budget := 300
	var work, relay HandlerID
	work = m.RegisterHandler("work", func(ctx *Ctx, _ any, _ int) {
		ctx.SetObj(int32(rng.Intn(4)))
		ctx.Charge(durs[rng.Intn(len(durs))], trace.CatNonbonded)
		if budget <= 0 {
			return
		}
		budget--
		pr := prios[rng.Intn(len(prios))]
		switch rng.Intn(5) {
		case 0:
			ctx.Send(dest(), work, nil, 64, pr)
		case 1:
			ctx.SendFree(dest(), work, nil, 64, pr)
		case 2:
			ctx.Multicast([]int32{int32(dest()), int32(dest()), int32(dest())}, work, nil, 64, pr)
		case 3:
			ctx.SendFree(ctx.PE(), work, nil, 0, pr)
			ctx.Charge(durs[rng.Intn(len(durs))], trace.CatIntegration)
		case 4:
			ctx.Send(dest(), relay, nil, 64, pr)
		}
	})
	relay = m.RegisterImmediateHandler("relay", func(ctx *Ctx, _ any, _ int) {
		ctx.Charge(u/2, trace.CatComm)
		ctx.SendFree((ctx.PE()+1)%npe, work, nil, 64, prios[rng.Intn(len(prios))])
	})
	for pe := 0; pe < npe; pe++ {
		m.Inject(pe, work, nil, 0, prios[pe%len(prios)])
	}
	m.Run()
	return m
}

// TestGoldenEventOrder pins the exact execution log (PE, object, entry,
// start, end, spans) of goldenProgram: the schedule is a pure function of
// the program, so the event and ready queues must pop in the same total
// orders whatever their implementation.
func TestGoldenEventOrder(t *testing.T) {
	m := goldenProgram()
	var buf bytes.Buffer
	if err := m.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "event_order.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run 'go test ./internal/converse -update' to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("execution log (%d records, %d bytes) drifted from %s (%d bytes)",
			len(m.Trace.Records), buf.Len(), path, len(want))
	}
}
