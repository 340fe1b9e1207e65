package charm

import (
	"testing"

	"gonamd/internal/converse"
	"gonamd/internal/projections"
	"gonamd/internal/trace"
)

// reliablePingPong builds a 2-PE runtime where object a on PE 0 sends
// n numbered messages to object b on PE 1, which counts distinct and
// total invocations per payload.
func reliablePingPong(t *testing.T, n int, plan *converse.FaultPlan, cfg ReliableConfig) (*converse.Machine, *Runtime, map[int]int) {
	t.Helper()
	m := converse.NewMachine(2, net)
	m.SetFaultPlan(plan)
	rt := NewRuntime(m)
	rt.EnableReliable(cfg)
	invocations := map[int]int{}
	recvE := rt.RegisterEntry("recv", func(c *Ctx, obj any, payload any, size int) {
		invocations[payload.(int)]++
		c.Charge(1e-6, trace.CatOther)
	})
	var b ObjID
	var sendE EntryID
	sendE = rt.RegisterEntry("send", func(c *Ctx, obj any, payload any, size int) {
		i := payload.(int)
		c.Send(b, recvE, i, 100, 0)
		if i+1 < n {
			c.Send(c.Obj, sendE, i+1, 0, 0)
		}
	})
	a := rt.CreateObj(0, nil, false)
	b = rt.CreateObj(1, nil, false)
	rt.Inject(a, sendE, 0, 0, 0)
	m.Run()
	return m, rt, invocations
}

// TestReliableHealsDrops: with half the messages dropped, every send is
// still invoked exactly once.
func TestReliableHealsDrops(t *testing.T) {
	const n = 50
	// Drops hit retransmissions and acks too (per-attempt loss
	// 1-0.6² = 0.64), so give the protocol generous retries.
	m, rt, inv := reliablePingPong(t, n,
		&converse.FaultPlan{Seed: 11, DropProb: 0.4},
		ReliableConfig{Timeout: 100e-6, MaxRetries: 30})
	if m.Stats.Dropped == 0 {
		t.Fatal("plan dropped nothing; test is vacuous")
	}
	for i := 0; i < n; i++ {
		if inv[i] != 1 {
			t.Errorf("payload %d invoked %d times, want exactly once", i, inv[i])
		}
	}
	if rt.Rel.Retries == 0 {
		t.Error("drops healed without any retransmission?")
	}
	if rt.Rel.GiveUps != 0 {
		t.Errorf("GiveUps = %d, want 0", rt.Rel.GiveUps)
	}
}

// TestReliableSuppressesDuplicates: with every message duplicated in the
// network, entries still run exactly once and the receiver counts the
// suppressed copies.
func TestReliableSuppressesDuplicates(t *testing.T) {
	const n = 30
	_, rt, inv := reliablePingPong(t, n,
		&converse.FaultPlan{Seed: 11, DupProb: 1},
		ReliableConfig{Timeout: 100e-6})
	for i := 0; i < n; i++ {
		if inv[i] != 1 {
			t.Errorf("payload %d invoked %d times, want exactly once", i, inv[i])
		}
	}
	if rt.Rel.Duplicates == 0 {
		t.Error("no duplicates suppressed despite DupProb 1")
	}
}

// TestReliableMatchesFaultFree: under a lossy network, the set of
// invocations is identical to a fault-free run.
func TestReliableMatchesFaultFree(t *testing.T) {
	const n = 40
	cfg := ReliableConfig{Timeout: 100e-6}
	_, _, clean := reliablePingPong(t, n, nil, cfg)
	_, _, lossy := reliablePingPong(t, n,
		&converse.FaultPlan{Seed: 5, DropProb: 0.3, DupProb: 0.2, DelayProb: 0.3, DelayMax: 50e-6, ReorderProb: 0.3},
		cfg)
	if len(clean) != n {
		t.Fatalf("fault-free run invoked %d payloads, want %d", len(clean), n)
	}
	for i := 0; i < n; i++ {
		if clean[i] != lossy[i] {
			t.Errorf("payload %d: fault-free %d invocations, lossy %d", i, clean[i], lossy[i])
		}
	}
}

// TestReliableGivesUpOnDeadPE: a destination that never comes back stops
// consuming retransmissions after MaxRetries.
func TestReliableGivesUpOnDeadPE(t *testing.T) {
	m := converse.NewMachine(2, net)
	// PE 1 dies immediately and stays down for longer than every backoff.
	m.SetFaultPlan(&converse.FaultPlan{
		Crashes: []converse.Crash{{PE: 1, At: 0, Down: 1e9}},
	})
	rt := NewRuntime(m)
	rt.EnableReliable(ReliableConfig{Timeout: 10e-6, MaxRetries: 3})
	hits := 0
	recvE := rt.RegisterEntry("recv", func(c *Ctx, obj any, payload any, size int) { hits++ })
	var b ObjID
	sendE := rt.RegisterEntry("send", func(c *Ctx, obj any, payload any, size int) {
		c.Send(b, recvE, 0, 100, 0)
	})
	a := rt.CreateObj(0, nil, false)
	b = rt.CreateObj(1, nil, false)
	rt.Inject(a, sendE, nil, 0, 0)
	m.Run()
	if hits != 0 {
		t.Errorf("dead PE invoked the entry %d times", hits)
	}
	if rt.Rel.GiveUps != 1 {
		t.Errorf("GiveUps = %d, want 1", rt.Rel.GiveUps)
	}
	if rt.Rel.Retries != 3 {
		t.Errorf("Retries = %d, want MaxRetries = 3", rt.Rel.Retries)
	}
}

// TestReliableRetryChargesProtocolCategory: retransmissions and acks are
// charged as CatRetry, keeping protocol overhead visible in traces.
func TestReliableRetryChargesProtocolCategory(t *testing.T) {
	m := converse.NewMachine(2, net)
	m.Trace = trace.NewLog()
	m.SetFaultPlan(&converse.FaultPlan{Seed: 1, DropProb: 0.5})
	rt := NewRuntime(m)
	rt.EnableReliable(ReliableConfig{Timeout: 50e-6})
	recvE := rt.RegisterEntry("recv", func(c *Ctx, obj any, payload any, size int) {})
	var b ObjID
	var sendE EntryID
	sendE = rt.RegisterEntry("send", func(c *Ctx, obj any, payload any, size int) {
		i := payload.(int)
		c.Send(b, recvE, i, 100, 0)
		if i < 20 {
			c.Send(c.Obj, sendE, i+1, 0, 0)
		}
	})
	a := rt.CreateObj(0, nil, false)
	b = rt.CreateObj(1, nil, false)
	rt.Inject(a, sendE, 0, 0, 0)
	m.Run()
	retry := 0.0
	for _, c := range projections.Analyze(m.Trace, projections.Options{}).Categories {
		if c.Category == trace.CatRetry.String() {
			retry = c.Seconds
		}
	}
	if retry <= 0 {
		t.Errorf("CatRetry total = %v, want > 0", retry)
	}
}

// TestEnableReliableValidation: misconfiguration fails fast.
func TestEnableReliableValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("zero timeout", func() {
		NewRuntime(converse.NewMachine(1, net)).EnableReliable(ReliableConfig{})
	})
	expectPanic("backoff below 1", func() {
		NewRuntime(converse.NewMachine(1, net)).EnableReliable(ReliableConfig{Timeout: 1, Backoff: 0.5})
	})
	expectPanic("double enable", func() {
		rt := NewRuntime(converse.NewMachine(1, net))
		rt.EnableReliable(ReliableConfig{Timeout: 1})
		rt.EnableReliable(ReliableConfig{Timeout: 1})
	})
}
