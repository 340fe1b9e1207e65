package charm

import (
	"testing"

	"gonamd/internal/converse"
)

// treeNet has ASCI-Red-like per-destination overheads so the fan-out
// chooser actually builds trees.
var treeNet = converse.NetworkModel{
	Latency:            20e-6,
	PerByte:            3.3e-9,
	SendOverhead:       100e-6,
	SendPerByte:        15e-9,
	RecvOverhead:       80e-6,
	LocalSendOverhead:  1.5e-6,
	LocalRecvOverhead:  2.0e-6,
	MulticastOptimized: true,
	MulticastPerDest:   15e-6,
}

// runTreeDelivery spreads nobj counter objects over npe PEs (several per
// PE, including the sender's own), multicasts once from an object on PE
// 0, and returns per-object hit counts plus the virtual finish time.
func runTreeDelivery(t *testing.T, npe, nobj int, scatter bool) ([]int, float64) {
	t.Helper()
	m := converse.NewMachine(npe, treeNet)
	rt := NewRuntime(m)
	hit := rt.RegisterEntry("hit", func(c *Ctx, obj any, payload any, size int) {
		obj.(*counter).hits++
	})
	var objs []ObjID
	for i := 0; i < nobj; i++ {
		objs = append(objs, rt.CreateObj(i%npe, &counter{}, true))
	}
	root := rt.CreateObj(0, nil, true)
	var send EntryID
	send = rt.RegisterEntry("send", func(c *Ctx, obj any, payload any, size int) {
		if scatter {
			c.ScatterTree(objs, hit, nil, 512, 0)
		} else {
			c.MulticastTree(objs, hit, nil, 4096, 0)
		}
	})
	rt.Inject(root, send, nil, 0, 0)
	m.Run()
	hits := make([]int, nobj)
	for i, o := range objs {
		hits[i] = rt.State(o).(*counter).hits
	}
	return hits, m.Now()
}

// TestTreeMulticastDeliversExactlyOnce: relayed routing must reach every
// destination exactly once, including destinations co-located with the
// sender and multiple objects per PE.
func TestTreeMulticastDeliversExactlyOnce(t *testing.T) {
	for _, scatter := range []bool{false, true} {
		hits, _ := runTreeDelivery(t, 64, 200, scatter)
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("scatter=%v: object %d delivered %d times", scatter, i, h)
			}
		}
	}
}

// TestTreeMulticastBeatsFlatAtScale: with hundreds of destinations on a
// high-overhead network, the tree must finish sooner than the flat
// optimized multicast (which serializes a per-destination charge on the
// sender).
func TestTreeMulticastBeatsFlatAtScale(t *testing.T) {
	npe, nobj := 512, 512
	m := converse.NewMachine(npe, treeNet)
	rt := NewRuntime(m)
	hit := rt.RegisterEntry("hit", func(c *Ctx, obj any, payload any, size int) {})
	var objs []ObjID
	for i := 0; i < nobj; i++ {
		objs = append(objs, rt.CreateObj(i%npe, nil, true))
	}
	root := rt.CreateObj(0, nil, true)
	flat := rt.RegisterEntry("flat", func(c *Ctx, obj any, payload any, size int) {
		c.Multicast(objs, hit, nil, 4096, 0)
	})
	rt.Inject(root, flat, nil, 0, 0)
	m.Run()
	flatT := m.Now()

	m2 := converse.NewMachine(npe, treeNet)
	rt2 := NewRuntime(m2)
	hit2 := rt2.RegisterEntry("hit", func(c *Ctx, obj any, payload any, size int) {})
	var objs2 []ObjID
	for i := 0; i < nobj; i++ {
		objs2 = append(objs2, rt2.CreateObj(i%npe, nil, true))
	}
	root2 := rt2.CreateObj(0, nil, true)
	tree := rt2.RegisterEntry("tree", func(c *Ctx, obj any, payload any, size int) {
		c.MulticastTree(objs2, hit2, nil, 4096, 0)
	})
	rt2.Inject(root2, tree, nil, 0, 0)
	m2.Run()
	treeT := m2.Now()

	if treeT >= flatT {
		t.Errorf("tree multicast no faster: tree %.6fs vs flat %.6fs", treeT, flatT)
	}
}

// TestTreeMulticastDeterministic: two identical runs produce the same
// virtual finish time.
func TestTreeMulticastDeterministic(t *testing.T) {
	_, t1 := runTreeDelivery(t, 32, 96, false)
	_, t2 := runTreeDelivery(t, 32, 96, false)
	if t1 != t2 {
		t.Errorf("tree multicast nondeterministic: %v vs %v", t1, t2)
	}
}
