// Spanning-tree multicast routing. The flat §4.2.3 multicast packs the
// payload once but still pays a per-destination CPU charge at the sender
// and a full receive overhead at every destination — at a thousand PEs a
// patch with hundreds of proxies serializes all of that on its home
// processor. Tree routing splits the destination list into fan-out
// contiguous chunks and forwards each chunk head the rest of its chunk;
// relays pay the per-child charges, so the sender's cost drops from
// O(destinations) to O(fan-out) and the remainder is spread across the
// machine. The fan-out is chosen by the machine model to minimize the
// modeled completion time (converse.NetworkModel.TreeFanout), so on
// low-overhead networks the degenerate flat tree is kept automatically.
package charm

import (
	"cmp"
	"slices"

	"gonamd/internal/converse"
	"gonamd/internal/trace"
)

// treeDest is one destination processor and the objects on it.
type treeDest struct {
	pe   int32
	objs []ObjID
}

// treeCast is one tree multicast, shared read-only by every hop of it:
// what each destination object receives, and the destination PEs in
// tree order. A hop message carries a pointer to it as its payload and
// the chunk of dests rooted at the receiving PE as its tag (see span),
// so relaying allocates nothing, and a hop the network drops or
// duplicates needs no bookkeeping.
type treeCast struct {
	entry   EntryID
	payload any
	size    int // bytes delivered to each destination object
	prio    int64
	fanout  int
	scatter bool // personalized blocks: wire bytes scale with subtree size
	dests   []treeDest
}

// span packs the chunk dests[lo:hi] of a tree multicast into a hop's tag
// word; dests[lo] is the receiving PE.
func span(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(hi) }

// relay is the converse handler forwarding tree multicasts: deliver to
// the local destinations, then forward the remaining chunks.
func (rt *Runtime) relay(cc *converse.Ctx, payload any, _ int) {
	tc := payload.(*treeCast)
	tag := cc.Tag()
	lo, hi := int(tag>>32), int(uint32(tag))
	for _, obj := range tc.dests[lo].objs {
		cc.SendFreeTagged(cc.PE(), rt.dispatchH, invocation(obj, tc.entry), tc.payload, tc.size, tc.prio)
	}
	rt.forward(cc, tc, lo+1, hi)
}

// forward splits tc.dests[lo:hi] into up to tc.fanout contiguous chunks
// and sends each to its first PE, charging the per-child multicast cost.
func (rt *Runtime) forward(cc *converse.Ctx, tc *treeCast, lo, hi int) {
	n := hi - lo
	if n == 0 {
		return
	}
	chunks := tc.fanout
	if chunks < 1 {
		chunks = 1
	}
	if chunks > n {
		chunks = n
	}
	net := &rt.M.Net
	for i := 0; i < chunks; i++ {
		clo, chi := lo+i*n/chunks, lo+(i+1)*n/chunks
		wire := tc.size
		if tc.scatter {
			nobjs := 0
			for _, d := range tc.dests[clo:chi] {
				nobjs += len(d.objs)
			}
			wire = tc.size * nobjs
		}
		cc.Charge(net.MulticastPerDest, trace.CatComm)
		cc.SendFreeTagged(int(tc.dests[clo].pe), rt.mcastH, span(clo, chi), tc, wire, tc.prio)
	}
}

// treeDests groups the remote destination objects by current processor:
// PEs in ascending order, objects in caller order within each. The
// groups share one backing array.
func (c *Ctx) treeDests(objs []ObjID) []treeDest {
	self := int32(c.C.PE())
	rt := c.RT
	remote := make([]ObjID, 0, len(objs))
	for _, obj := range objs {
		if rt.objs[obj].pe != self {
			remote = append(remote, obj)
		}
	}
	slices.SortStableFunc(remote, func(a, b ObjID) int { return cmp.Compare(rt.objs[a].pe, rt.objs[b].pe) })
	npe := 0
	for i, obj := range remote {
		if i == 0 || rt.objs[obj].pe != rt.objs[remote[i-1]].pe {
			npe++
		}
	}
	dests := make([]treeDest, 0, npe)
	for i := 0; i < len(remote); {
		pe := rt.objs[remote[i]].pe
		j := i + 1
		for j < len(remote) && rt.objs[remote[j]].pe == pe {
			j++
		}
		dests = append(dests, treeDest{pe: pe, objs: remote[i:j]})
		i = j
	}
	return dests
}

// sendLocal delivers to the destination objects on the sender's own PE,
// in caller order, each at the per-destination multicast charge.
func (c *Ctx) sendLocal(objs []ObjID, e EntryID, payload any, size int, prio int64) {
	self := int32(c.C.PE())
	perDest := c.RT.M.Net.MulticastPerDest
	for _, obj := range objs {
		if c.RT.objs[obj].pe != self {
			continue
		}
		c.C.Charge(perDest, trace.CatComm)
		c.C.SendFreeTagged(int(self), c.RT.dispatchH, invocation(obj, e), payload, size, prio)
	}
}

// MulticastTree delivers like Multicast but routes remote destinations
// through a spanning tree when the machine model says a tree completes
// sooner. Falls back to the flat Multicast in naive multicast mode and
// whenever the chosen fan-out degenerates to the flat send.
func (c *Ctx) MulticastTree(objs []ObjID, e EntryID, payload any, size int, prio int64) {
	if len(objs) == 0 {
		return
	}
	net := &c.RT.M.Net
	if !net.MulticastOptimized {
		c.Multicast(objs, e, payload, size, prio)
		return
	}
	dests := c.treeDests(objs)
	fanout := 0
	if len(dests) > 0 {
		fanout = net.TreeFanout(len(dests), size)
	}
	if fanout >= len(dests) {
		c.Multicast(objs, e, payload, size, prio)
		return
	}
	// Pack once, deliver local destinations directly, hand the remote
	// chunks to the tree.
	c.C.Charge(net.SendOverhead+float64(size)*net.SendPerByte, trace.CatComm)
	c.sendLocal(objs, e, payload, size, prio)
	tc := &treeCast{entry: e, payload: payload, size: size, prio: prio, fanout: fanout, dests: dests}
	c.RT.forward(c.C, tc, 0, len(dests))
}

// ScatterTree is the personalized-tree counterpart for transpose-style
// all-to-alls: every destination object receives its own sizeEach-byte
// block, so relays forward one combined message per subtree instead of
// the sender paying a full SendOverhead per destination. Falls back to
// per-destination Sends in naive multicast mode or when the machine
// model prefers the flat exchange.
func (c *Ctx) ScatterTree(objs []ObjID, e EntryID, payload any, sizeEach int, prio int64) {
	if len(objs) == 0 {
		return
	}
	net := &c.RT.M.Net
	flat := func() {
		for _, obj := range objs {
			c.Send(obj, e, payload, sizeEach, prio)
		}
	}
	if !net.MulticastOptimized {
		flat()
		return
	}
	dests := c.treeDests(objs)
	fanout := 0
	if len(dests) > 0 {
		fanout = net.ScatterFanout(len(dests), sizeEach)
	}
	if fanout >= len(dests) {
		flat()
		return
	}
	// Pack all blocks in one buffer, then scatter down the tree.
	c.C.Charge(net.SendOverhead+float64(sizeEach*len(objs))*net.SendPerByte, trace.CatComm)
	c.sendLocal(objs, e, payload, sizeEach, prio)
	tc := &treeCast{entry: e, payload: payload, size: sizeEach, prio: prio, fanout: fanout, scatter: true, dests: dests}
	c.RT.forward(c.C, tc, 0, len(dests))
}
