package charm

import (
	"math"
	"testing"

	"gonamd/internal/converse"
	"gonamd/internal/trace"
)

var net = converse.NetworkModel{
	Latency:      1e-6,
	PerByte:      1e-9,
	SendOverhead: 2e-6,
	SendPerByte:  1e-10,
	RecvOverhead: 1e-6,
}

type counter struct{ hits int }

func TestObjectInvocation(t *testing.T) {
	m := converse.NewMachine(2, net)
	rt := NewRuntime(m)
	var pingE, pongE EntryID
	pingE = rt.RegisterEntry("ping", func(c *Ctx, obj any, payload any, size int) {
		obj.(*counter).hits++
		c.Charge(1e-6, trace.CatOther)
		c.Send(payload.(ObjID), pongE, c.Obj, 64, 0)
	})
	pongE = rt.RegisterEntry("pong", func(c *Ctx, obj any, payload any, size int) {
		obj.(*counter).hits++
	})
	a := rt.CreateObj(0, &counter{}, true)
	b := rt.CreateObj(1, &counter{}, true)
	rt.Inject(a, pingE, b, 0, 0)
	m.Run()
	if rt.State(a).(*counter).hits != 1 || rt.State(b).(*counter).hits != 1 {
		t.Errorf("hits = %d/%d", rt.State(a).(*counter).hits, rt.State(b).(*counter).hits)
	}
}

func TestLoadMeasurement(t *testing.T) {
	m := converse.NewMachine(1, net)
	rt := NewRuntime(m)
	work := rt.RegisterEntry("work", func(c *Ctx, obj any, payload any, size int) {
		c.Charge(payload.(float64), trace.CatNonbonded)
	})
	a := rt.CreateObj(0, nil, true)
	b := rt.CreateObj(0, nil, true)
	rt.Inject(a, work, 5e-6, 0, 0)
	rt.Inject(a, work, 3e-6, 0, 0)
	rt.Inject(b, work, 2e-6, 0, 0)
	m.Run()
	loads := rt.Loads()
	// Receive overhead is charged before the entry body, so measured
	// object load is just the charged work.
	if math.Abs(loads[a]-8e-6) > 1e-15 {
		t.Errorf("load[a] = %v, want 8e-6", loads[a])
	}
	if math.Abs(loads[b]-2e-6) > 1e-15 {
		t.Errorf("load[b] = %v, want 2e-6", loads[b])
	}
	rt.ResetLoads()
	for i, l := range rt.Loads() {
		if l != 0 {
			t.Errorf("load[%d] = %v after reset", i, l)
		}
	}
}

func TestMigration(t *testing.T) {
	m := converse.NewMachine(2, net)
	rt := NewRuntime(m)
	var ranOn []int
	work := rt.RegisterEntry("work", func(c *Ctx, obj any, payload any, size int) {
		ranOn = append(ranOn, c.PE())
	})
	a := rt.CreateObj(0, nil, true)
	rt.Inject(a, work, nil, 0, 0)
	m.Run()
	rt.Migrate(a, 1)
	if rt.Location(a) != 1 {
		t.Fatalf("Location = %d", rt.Location(a))
	}
	rt.Inject(a, work, nil, 0, 0)
	m.Run()
	if len(ranOn) != 2 || ranOn[0] != 0 || ranOn[1] != 1 {
		t.Errorf("ranOn = %v, want [0 1]", ranOn)
	}
}

func TestMigrateNonMigratablePanics(t *testing.T) {
	m := converse.NewMachine(2, net)
	rt := NewRuntime(m)
	a := rt.CreateObj(0, nil, false)
	defer func() {
		if recover() == nil {
			t.Error("migrating non-migratable object did not panic")
		}
	}()
	rt.Migrate(a, 1)
}

func TestMulticastToObjects(t *testing.T) {
	const n = 10
	run := func(optimized bool) (float64, int) {
		mcNet := net
		mcNet.MulticastOptimized = optimized
		mcNet.MulticastPerDest = 0.1e-6
		m := converse.NewMachine(n+1, mcNet)
		m.Trace = trace.NewLog()
		rt := NewRuntime(m)
		got := 0
		recv := rt.RegisterEntry("recv", func(c *Ctx, obj any, payload any, size int) {
			got++
		})
		var dests []ObjID
		for i := 0; i < n; i++ {
			dests = append(dests, rt.CreateObj(i+1, nil, true))
		}
		cast := rt.RegisterEntry("cast", func(c *Ctx, obj any, payload any, size int) {
			c.Multicast(dests, recv, "positions", 1000, 0)
		})
		src := rt.CreateObj(0, nil, true)
		rt.Inject(src, cast, nil, 0, 0)
		m.Run()
		// Find the cast execution's comm time.
		for _, r := range m.Trace.Records {
			if r.PE == 0 {
				tot := 0.0
				for _, sp := range r.Spans {
					if sp.Cat == trace.CatComm {
						tot += sp.Dur
					}
				}
				return tot, got
			}
		}
		t.Fatal("cast record not found")
		return 0, 0
	}
	naiveCost, naiveGot := run(false)
	optCost, optGot := run(true)
	if naiveGot != n || optGot != n {
		t.Fatalf("deliveries: naive %d, optimized %d, want %d", naiveGot, optGot, n)
	}
	wantNaive := n * (2e-6 + 1000*1e-10)
	if math.Abs(naiveCost-wantNaive) > 1e-12 {
		t.Errorf("naive comm = %v, want %v", naiveCost, wantNaive)
	}
	wantOpt := (2e-6 + 1000*1e-10) + n*0.1e-6
	if math.Abs(optCost-wantOpt) > 1e-12 {
		t.Errorf("optimized comm = %v, want %v", optCost, wantOpt)
	}
}

func TestStaleLocationPanics(t *testing.T) {
	m := converse.NewMachine(2, net)
	rt := NewRuntime(m)
	var self EntryID
	migrated := false
	self = rt.RegisterEntry("self", func(c *Ctx, obj any, payload any, size int) {
		if !migrated {
			// Send to self, then migrate before delivery: the message is
			// now mis-addressed — dispatch must detect it.
			c.Send(c.Obj, self, nil, 0, 0)
			migrated = true
			rt.Migrate(c.Obj, 1)
		}
	})
	a := rt.CreateObj(0, nil, true)
	rt.Inject(a, self, nil, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("stale-location delivery did not panic")
		}
	}()
	m.Run()
}

func TestCreateObjValidation(t *testing.T) {
	m := converse.NewMachine(1, net)
	rt := NewRuntime(m)
	defer func() {
		if recover() == nil {
			t.Error("CreateObj on invalid PE did not panic")
		}
	}()
	rt.CreateObj(7, nil, true)
}

func TestMigratableAndNumObjs(t *testing.T) {
	m := converse.NewMachine(1, net)
	rt := NewRuntime(m)
	a := rt.CreateObj(0, nil, true)
	b := rt.CreateObj(0, nil, false)
	if !rt.Migratable(a) || rt.Migratable(b) {
		t.Error("migratable flags wrong")
	}
	if rt.NumObjs() != 2 {
		t.Errorf("NumObjs = %d", rt.NumObjs())
	}
}

func TestReducer(t *testing.T) {
	m := converse.NewMachine(4, net)
	rt := NewRuntime(m)
	var fired []int
	done := rt.RegisterEntry("done", func(c *Ctx, obj any, payload any, size int) {
		fired = append(fired, payload.(int))
	})
	sink := rt.CreateObj(0, nil, false)
	red := rt.NewReducer(1, 3, sink, done)

	contribute := rt.RegisterEntry("contribute", func(c *Ctx, obj any, payload any, size int) {
		c.Contribute(red, payload.(int))
	})
	worker := rt.CreateObj(2, nil, true)

	// Three contributions for tag 7 → fires once; two for tag 8 → not yet.
	for i := 0; i < 3; i++ {
		rt.Inject(worker, contribute, 7, 0, 0)
	}
	rt.Inject(worker, contribute, 8, 0, 0)
	rt.Inject(worker, contribute, 8, 0, 0)
	m.Run()
	if len(fired) != 1 || fired[0] != 7 {
		t.Fatalf("fired = %v, want [7]", fired)
	}
	// Completing tag 8 fires it, and tag 7's state was cleared (another
	// 3 contributions fire it again).
	rt.ContributeInject(red, 8)
	for i := 0; i < 3; i++ {
		rt.ContributeInject(red, 7)
	}
	m.Run()
	if len(fired) != 3 {
		t.Fatalf("fired = %v, want three completions", fired)
	}
}

func TestReducerValidation(t *testing.T) {
	m := converse.NewMachine(1, net)
	rt := NewRuntime(m)
	sink := rt.CreateObj(0, nil, false)
	e := rt.RegisterEntry("e", func(c *Ctx, obj any, payload any, size int) {})
	defer func() {
		if recover() == nil {
			t.Error("expected=0 did not panic")
		}
	}()
	rt.NewReducer(0, 0, sink, e)
}
