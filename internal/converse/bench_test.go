package converse

import (
	"testing"

	"gonamd/internal/trace"
)

// BenchmarkEventThroughput measures the discrete-event core: a message
// ring across 64 PEs (one handler execution + one remote send per event).
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
