// Package charm implements the data-driven object layer of the paper's
// runtime (§2.2): collections of objects ("chares") that communicate by
// remotely invoking entry methods on each other. Objects are mapped to
// the simulated machine's processors and can migrate between them; the
// runtime automatically instruments every entry-method execution,
// accumulating per-object load measurements — the "database" the
// measurement-based load balancing framework reads.
package charm

import (
	"fmt"

	"gonamd/internal/converse"
	"gonamd/internal/trace"
)

// ObjID identifies an object in the runtime.
type ObjID int32

// EntryID identifies a registered entry method.
type EntryID int32

// Entry is an entry-method body: it receives the invocation context, the
// object's state, and the message payload with its modeled size.
type Entry func(c *Ctx, obj any, payload any, size int)

// invocation packs an object invocation's routing into the converse
// message's tag word, so the payload travels as the caller boxed it:
// sending costs no allocation beyond what boxing the payload does.
func invocation(obj ObjID, e EntryID) uint64 { return uint64(uint32(obj))<<32 | uint64(uint32(e)) }

// target unpacks an invocation tag.
func target(tag uint64) (ObjID, EntryID) { return ObjID(tag >> 32), EntryID(uint32(tag)) }

// Runtime manages objects on a simulated machine.
type Runtime struct {
	M *converse.Machine

	dispatchH   converse.HandlerID
	mcastH      converse.HandlerID
	entries     []Entry
	names       []string
	objs        []objSlot
	reduceEntry EntryID // lazily registered by NewReducer; -1 until then

	// ctx is the one entry-method context, reused by every dispatch.
	ctx Ctx
}

type objSlot struct {
	pe         int32
	state      any
	load       float64 // measured execution time since last reset
	migratable bool
}

// NewRuntime creates an object runtime on machine m. It registers one
// converse handler per entry method name lazily; all entries must be
// registered before Run.
func NewRuntime(m *converse.Machine) *Runtime {
	rt := &Runtime{M: m, reduceEntry: -1}
	rt.ctx.RT = rt
	rt.dispatchH = m.RegisterHandler("charm.dispatch", rt.dispatch)
	// Relays are immediate: forwarding runs in the communication layer at
	// arrival (Converse immediate messages / the dedicated communication
	// processor), not behind the worker's scheduler queue — a tree hop
	// through a busy PE must not wait out its current entry method.
	rt.mcastH = m.RegisterImmediateHandler("charm.mcast", rt.relay)
	return rt
}

// RegisterEntry registers an entry method and returns its id.
func (rt *Runtime) RegisterEntry(name string, fn Entry) EntryID {
	rt.entries = append(rt.entries, fn)
	rt.names = append(rt.names, name)
	return EntryID(len(rt.entries) - 1)
}

// CreateObj places a new object with the given state on a processor.
// Migratable objects may be moved by Migrate; non-migratable objects
// (the paper's multi-patch bonded computes) stay put.
func (rt *Runtime) CreateObj(pe int, state any, migratable bool) ObjID {
	if pe < 0 || pe >= rt.M.NumPE() {
		panic(fmt.Sprintf("charm: CreateObj on invalid PE %d", pe))
	}
	rt.objs = append(rt.objs, objSlot{pe: int32(pe), state: state, migratable: migratable})
	return ObjID(len(rt.objs) - 1)
}

// NumObjs returns the number of objects created.
func (rt *Runtime) NumObjs() int { return len(rt.objs) }

// Location returns the processor an object currently lives on.
func (rt *Runtime) Location(obj ObjID) int { return int(rt.objs[obj].pe) }

// Migratable reports whether the object may be migrated.
func (rt *Runtime) Migratable(obj ObjID) bool { return rt.objs[obj].migratable }

// State returns the object's state (for inspection in tests and setup).
func (rt *Runtime) State(obj ObjID) any { return rt.objs[obj].state }

// Migrate moves a migratable object to another processor. It must only
// be called while no messages for the object are in flight (the load
// balancer migrates during a synchronized pause, as in the paper).
func (rt *Runtime) Migrate(obj ObjID, pe int) {
	if !rt.objs[obj].migratable {
		panic(fmt.Sprintf("charm: object %d is not migratable", obj))
	}
	if pe < 0 || pe >= rt.M.NumPE() {
		panic(fmt.Sprintf("charm: Migrate to invalid PE %d", pe))
	}
	rt.objs[obj].pe = int32(pe)
}

// Loads returns the per-object measured execution times accumulated since
// the last ResetLoads — the load balancing framework's database.
func (rt *Runtime) Loads() []float64 {
	out := make([]float64, len(rt.objs))
	for i := range rt.objs {
		out[i] = rt.objs[i].load
	}
	return out
}

// ResetLoads zeroes the measurement database.
func (rt *Runtime) ResetLoads() {
	for i := range rt.objs {
		rt.objs[i].load = 0
	}
}

// Inject seeds an invocation before the machine runs.
func (rt *Runtime) Inject(obj ObjID, e EntryID, payload any, size int, prio int64) {
	rt.M.InjectTagged(int(rt.objs[obj].pe), rt.dispatchH, invocation(obj, e), payload, size, prio)
}

// dispatch is the converse handler that invokes the entry method the
// message's tag names on the object it names.
func (rt *Runtime) dispatch(cc *converse.Ctx, payload any, size int) {
	obj, e := target(cc.Tag())
	slot := &rt.objs[obj]
	if int(slot.pe) != cc.PE() {
		// A message arrived at a stale location. This cannot happen when
		// migration only occurs during synchronized pauses.
		panic(fmt.Sprintf("charm: object %d addressed on PE %d but lives on PE %d",
			obj, cc.PE(), slot.pe))
	}
	cc.SetObj(int32(obj))
	rt.ctx.C, rt.ctx.Obj = cc, obj
	before := cc.Elapsed()
	rt.entries[e](&rt.ctx, slot.state, payload, size)
	slot.load += cc.Elapsed() - before
}

// Ctx is the context passed to entry methods. A runtime dispatches every
// invocation on one Ctx, so an entry method must not keep it past its
// return.
type Ctx struct {
	C   *converse.Ctx
	RT  *Runtime
	Obj ObjID
}

// PE returns the executing processor.
func (c *Ctx) PE() int { return c.C.PE() }

// Now returns the current virtual time.
func (c *Ctx) Now() float64 { return c.C.Now() }

// Charge consumes virtual CPU time in the given category.
func (c *Ctx) Charge(dt float64, cat trace.Category) { c.C.Charge(dt, cat) }

// Send invokes an entry method on another object (or this one), routing
// to the object's current processor.
func (c *Ctx) Send(obj ObjID, e EntryID, payload any, size int, prio int64) {
	c.C.SendTagged(c.RT.Location(obj), c.RT.dispatchH, invocation(obj, e), payload, size, prio)
}

// Multicast invokes the same entry with the same payload on many objects.
// With the machine's MulticastOptimized flag set, the payload is packed
// once (one SendOverhead + size×SendPerByte charge) and each destination
// costs MulticastPerDest; otherwise every destination pays the full
// per-message packing cost — the paper's §4.2.3 optimization.
func (c *Ctx) Multicast(objs []ObjID, e EntryID, payload any, size int, prio int64) {
	if len(objs) == 0 {
		return
	}
	net := &c.RT.M.Net
	if net.MulticastOptimized {
		c.C.Charge(net.SendOverhead+float64(size)*net.SendPerByte, trace.CatComm)
		for _, obj := range objs {
			c.C.Charge(net.MulticastPerDest, trace.CatComm)
			c.C.SendFreeTagged(c.RT.Location(obj), c.RT.dispatchH, invocation(obj, e), payload, size, prio)
		}
	} else {
		for _, obj := range objs {
			c.Send(obj, e, payload, size, prio)
		}
	}
}
