package charm

import (
	"testing"

	"gonamd/internal/converse"
)

// TestSendPathsZeroAllocs: once a runtime's machine has grown to its
// working set, no send path allocates per message — Send, Multicast in
// both modes, and a tree-multicast hop (the relay delivering to its PE's
// objects through dispatch and forwarding the rest of its chunk to
// further relays). The object and entry ride in the message's tag word
// and the payload travels as the caller boxed it.
func TestSendPathsZeroAllocs(t *testing.T) {
	payload := any(&counter{}) // boxed once, outside the measured runs
	const npe, perPE = 4, 2
	for _, c := range []struct {
		name      string
		optimized bool
		send      func(c *Ctx, dests []ObjID, e EntryID)
	}{
		{"Send", false, func(c *Ctx, dests []ObjID, e EntryID) {
			for _, d := range dests {
				c.Send(d, e, payload, 64, 1)
			}
		}},
		{"Multicast/naive", false, func(c *Ctx, dests []ObjID, e EntryID) { c.Multicast(dests, e, payload, 64, 1) }},
		{"Multicast/optimized", true, func(c *Ctx, dests []ObjID, e EntryID) { c.Multicast(dests, e, payload, 64, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			mnet := treeNet
			mnet.MulticastOptimized = c.optimized
			m := converse.NewMachine(npe, mnet)
			rt := NewRuntime(m)
			got := 0
			recv := rt.RegisterEntry("recv", func(*Ctx, any, any, int) { got++ })
			var dests []ObjID
			for i := 0; i < npe*perPE; i++ {
				dests = append(dests, rt.CreateObj(i%npe, nil, true))
			}
			cast := rt.RegisterEntry("cast", func(cx *Ctx, _ any, _ any, _ int) { c.send(cx, dests, recv) })
			src := rt.CreateObj(0, nil, true)
			allocs := testing.AllocsPerRun(20, func() {
				rt.Inject(src, cast, nil, 0, 0)
				m.Run()
			})
			if got != 21*len(dests) {
				t.Fatalf("%d deliveries over 21 runs, want %d", got, 21*len(dests))
			}
			if allocs != 0 {
				t.Errorf("%v allocations per run of %d messages, want 0", allocs, len(dests))
			}
		})
	}
	t.Run("tree hop", func(t *testing.T) {
		const npe = 8
		m := converse.NewMachine(npe, treeNet)
		rt := NewRuntime(m)
		got := 0
		recv := rt.RegisterEntry("recv", func(*Ctx, any, any, int) { got++ })
		var dests []treeDest
		for pe := 1; pe < npe; pe++ {
			d := treeDest{pe: int32(pe)}
			for k := 0; k < perPE; k++ {
				d.objs = append(d.objs, rt.CreateObj(pe, nil, true))
			}
			dests = append(dests, d)
		}
		hop := any(&treeCast{entry: recv, payload: payload, size: 64, prio: 1, fanout: 2, dests: dests})
		allocs := testing.AllocsPerRun(20, func() {
			m.InjectTagged(1, rt.mcastH, span(0, len(dests)), hop, 64, 1)
			m.Run()
		})
		if want := 21 * (npe - 1) * perPE; got != want {
			t.Fatalf("%d deliveries over 21 runs, want %d", got, want)
		}
		if allocs != 0 {
			t.Errorf("%v allocations per tree multicast over %d relays, want 0", allocs, len(dests))
		}
	})
}
