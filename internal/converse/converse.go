// Package converse is a discrete-event simulation of the message-driven
// parallel machine that Charm++/Converse provides on real hardware
// (paper §2.2). It models P virtual processors, each with a prioritized
// scheduler queue of pending entry-method invocations. Handlers are real
// Go code — they mutate object state and send messages — but time is
// virtual: each handler charges model time for the work it represents,
// and the network model charges per-message CPU overhead, latency, and
// bandwidth.
//
// The simulation is deterministic: events are ordered by virtual time
// with sequence-number tie-breaking, so a given program produces the same
// schedule on every run.
package converse

import (
	"fmt"
	"math"
	"math/bits"

	"gonamd/internal/trace"
)

// HandlerID identifies a registered message handler.
type HandlerID int32

// Handler is the code run when a message is scheduled. It receives a Ctx
// for charging virtual time and sending messages, plus the message's
// payload and modeled size in bytes.
type Handler func(ctx *Ctx, payload any, size int)

// NetworkModel is the communication cost model.
type NetworkModel struct {
	Latency      float64 // wire latency per message, s
	PerByte      float64 // wire time per byte (1/bandwidth), s
	SendOverhead float64 // CPU cost to allocate+send one message, s
	SendPerByte  float64 // CPU cost per byte packed, s
	RecvOverhead float64 // CPU cost charged on message receipt, s

	// LocalSendOverhead and LocalRecvOverhead are the (much smaller)
	// CPU costs of enqueueing and scheduling a message for an object on
	// the same processor: no packing, no wire.
	LocalSendOverhead float64
	LocalRecvOverhead float64

	// MulticastOptimized enables the paper's §4.2.3 optimization: one
	// user-level packing/allocation for the whole multicast instead of
	// per-destination packing. MulticastPerDest is the remaining CPU
	// cost per destination in optimized mode.
	MulticastOptimized bool
	MulticastPerDest   float64
}

// msg is one message: an invocation in an outbox, in flight, or queued.
type msg struct {
	payload any
	tag     uint64 // opaque to the machine; read by the handler via Ctx.Tag
	prio    int64
	size    int
	to      int32
	handler HandlerID
	local   bool // sent from the same PE (cheaper receive)
}

// Event kinds, in tie-break order at equal times.
const (
	kindDone   uint64 = iota // execution completion
	kindArrive               // message arrival
)

// kindShift places an event's kind above its sequence number in key.lo;
// sequence numbers stay below 1<<62 for any run that could finish.
const (
	kindShift = 62
	seqMask   = 1<<kindShift - 1
)

// key is an entry of the event queue and of the PE ready queues, ordered
// lexicographically on (hi, lo). An event key holds the IEEE-754 bits of
// its time in hi — times are never negative, and the bit patterns of
// non-negative floats order like their values — and kind<<kindShift | seq
// in lo, so events pop by (time, kind, seq). A ready key holds the
// priority with its sign bit flipped in hi (unsigned order of the result
// is signed order of the priority) and the message's seq in lo, so
// messages pop by (prio, seq). Sequence numbers are unique, so both are
// total orders and the pop sequence does not depend on the heap's shape.
// Keys hold no pointers: sifting them needs no write barriers, and the
// messages they stand for stay put in the machine's slab.
type key struct {
	hi, lo uint64
	pe     int32  // events: the processor
	arg    uint32 // arrivals and ready entries: the slab slot
}

func (a key) less(b key) bool { return a.hi < b.hi || a.hi == b.hi && a.lo < b.lo }

func (a key) time() float64 { return math.Float64frombits(a.hi) }

func readyKey(prio int64, seq uint64, slot uint32) key {
	return key{hi: uint64(prio) ^ 1<<63, lo: seq, arg: slot}
}

// queue is a binary min-heap of keys.
type queue []key

func (q *queue) push(k key) {
	h := append(*q, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	*q = h
}

// before reports, as 0 or 1, whether a orders before b: the borrow out of
// the 128-bit subtraction (a.hi:a.lo) - (b.hi:b.lo), with no branch.
func before(a, b *key) int {
	_, borrow := bits.Sub64(a.lo, b.lo, 0)
	_, borrow = bits.Sub64(a.hi, b.hi, borrow)
	return int(borrow)
}

// pop removes and returns the least key. The vacated slot is zeroed.
//
// It pops bottom-up: the hole left at the root moves down to a leaf
// along the lesser child, picked by a branch-free compare, and the old
// last key then sifts up from that leaf — usually no level or one,
// since a last key is large. That is one compare per level down instead
// of two data-dependent branches. Keys are unique, so the lesser child
// is unambiguous and the pop sequence is that of any min-heap.
func (q *queue) pop() key {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = key{}
	h = h[:n]
	if n > 0 {
		i := 0
		for c := 1; c+1 < n; c = 2*i + 1 {
			c += before(&h[c+1], &h[c])
			h[i] = h[c]
			i = c
		}
		if c := 2*i + 1; c < n { // the last parent's only child
			h[i] = h[c]
			i = c
		}
		for i > 0 {
			p := (i - 1) / 2
			if !last.less(h[p]) {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = last
	}
	*q = h
	return top
}

// readyQueue is a PE's scheduler queue: a sorted lane of the keys that
// arrived in order beside a heap of the rest. Most messages arrive in
// (prio, seq) order — all of them on one PE — and those cost an append
// and a slice step instead of a sift through the heap.
type readyQueue struct {
	lane queue // ascending; the live keys are lane[head:]
	head int
	heap queue
}

func (r *readyQueue) len() int { return len(r.lane) - r.head + len(r.heap) }

// push appends k to the lane when the lane is empty or k orders after
// its last key, and pushes it on the heap otherwise.
func (r *readyQueue) push(k key) {
	if n := len(r.lane); n == r.head || r.lane[n-1].less(k) {
		r.lane = append(r.lane, k)
		return
	}
	r.heap.push(k)
}

// pop removes and returns the lesser of the lane's head and the heap's
// top. Keys are unique, so the pop sequence is the one a single heap
// gives. The vacated lane slot is zeroed. The lane resets when it drains
// and, once its head passes half its length, moves its live keys to the
// front and zeroes the slots they left, so it holds at most twice its
// live keys.
func (r *readyQueue) pop() key {
	if r.head == len(r.lane) || len(r.heap) > 0 && r.heap[0].less(r.lane[r.head]) {
		return r.heap.pop()
	}
	k := r.lane[r.head]
	r.lane[r.head] = key{}
	r.head++
	if r.head == len(r.lane) {
		r.lane, r.head = r.lane[:0], 0
	} else if 2*r.head > len(r.lane) {
		n := copy(r.lane, r.lane[r.head:])
		clear(r.lane[n:])
		r.lane, r.head = r.lane[:n], 0
	}
	return k
}

// PE is one virtual processor.
type PE struct {
	id    int32
	ready readyQueue
	busy  bool

	// Statistics. BusyTime is worker (entry-method) execution; CommTime
	// is communication-processor time consumed by immediate handlers.
	BusyTime float64
	CommTime float64
	MsgsRecv int
}

// Machine is the simulated parallel computer.
type Machine struct {
	Net   NetworkModel
	Trace *trace.Log // nil or disabled = no tracing

	handlers     []Handler
	handlerNames []string
	immediate    []bool
	pes          []*PE
	events       queue
	seq          uint64
	now          float64
	stopped      bool

	// msgs is the slab holding every queued or in-flight message; free
	// lists its vacant slots. Vacated slots are zeroed so the slab keeps
	// no dead payload reachable.
	msgs []msg
	free []uint32

	// ctx is the one execution context, reused by every execution.
	ctx Ctx

	// Aggregate statistics.
	TotalMsgs  int
	TotalBytes int
}

// NewMachine creates a machine with npe processors.
func NewMachine(npe int, net NetworkModel) *Machine {
	m := &Machine{Net: net}
	m.ctx.m = m
	m.pes = make([]*PE, npe)
	// Each lane starts in a window of one shared block instead of growing
	// through a run of small allocations. A window's capacity ends at the
	// window, so a lane that outgrows it moves to an array of its own
	// instead of into its neighbour's.
	lanes := make([]key, npe*laneWindow)
	for i := range m.pes {
		m.pes[i] = &PE{id: int32(i)}
		m.pes[i].ready.lane = lanes[i*laneWindow : i*laneWindow : (i+1)*laneWindow]
	}
	return m
}

// laneWindow is the capacity each PE's ready lane starts with.
const laneWindow = 16

// NumPE returns the processor count.
func (m *Machine) NumPE() int { return len(m.pes) }

// Now returns the current virtual time.
func (m *Machine) Now() float64 { return m.now }

// Stop makes Run return after the current event.
func (m *Machine) Stop() { m.stopped = true }

// Stopped reports whether Stop was called.
func (m *Machine) Stopped() bool { return m.stopped }

// RegisterHandler registers a named handler and returns its id. All
// handlers must be registered before Run.
func (m *Machine) RegisterHandler(name string, fn Handler) HandlerID {
	m.handlers = append(m.handlers, fn)
	m.handlerNames = append(m.handlerNames, name)
	m.immediate = append(m.immediate, false)
	return HandlerID(len(m.handlers) - 1)
}

// RegisterImmediateHandler registers a handler that runs at message
// arrival in the communication layer instead of waiting in the
// scheduler queue — Converse's immediate messages, which on machines
// with a dedicated communication processor (ASCI Red ran one of each
// node's two Pentium Pros as one) execute without interrupting the
// worker. The handler's charges model communication-processor time:
// they delay its own outgoing forwards but neither occupy the worker
// CPU nor wait for the worker's current entry method. Immediate
// handlers must not touch object state owned by ordinary executions;
// they are for stateless routing (multicast relays).
func (m *Machine) RegisterImmediateHandler(name string, fn Handler) HandlerID {
	id := m.RegisterHandler(name, fn)
	m.immediate[id] = true
	return id
}

// Inject enqueues a message arriving at the given PE at the current
// virtual time, for seeding the computation before Run.
func (m *Machine) Inject(pe int, h HandlerID, payload any, size int, prio int64) {
	m.InjectTagged(pe, h, 0, payload, size, prio)
}

// InjectTagged is Inject with a tag word the handler reads via Ctx.Tag.
func (m *Machine) InjectTagged(pe int, h HandlerID, tag uint64, payload any, size int, prio int64) {
	m.validate(pe, h)
	m.schedule(m.now, kindArrive, int32(pe), m.store(msg{to: int32(pe), handler: h, tag: tag, payload: payload, size: size, prio: prio}))
}

// schedule pushes an event with the next sequence number. Events are
// never scheduled in the past, which keeps times non-negative and the
// schedule monotone.
func (m *Machine) schedule(t float64, kind uint64, pe int32, arg uint32) {
	if !(t >= m.now) {
		panic(fmt.Sprintf("converse: event scheduled at %v, before the current time %v", t, m.now))
	}
	m.seq++
	m.events.push(key{hi: math.Float64bits(t), lo: kind<<kindShift | m.seq, pe: pe, arg: arg})
}

// store puts mg in a vacant slab slot and returns the slot.
func (m *Machine) store(mg msg) uint32 {
	if n := len(m.free); n > 0 {
		s := m.free[n-1]
		m.free = m.free[:n-1]
		m.msgs[s] = mg
		return s
	}
	m.msgs = append(m.msgs, mg)
	return uint32(len(m.msgs) - 1)
}

// release zeroes and frees slab slot s.
func (m *Machine) release(s uint32) {
	m.msgs[s] = msg{}
	m.free = append(m.free, s)
}

// take returns the message in slab slot s and frees the slot.
func (m *Machine) take(s uint32) msg {
	mg := m.msgs[s]
	m.release(s)
	return mg
}

func (m *Machine) validate(pe int, h HandlerID) {
	if pe < 0 || pe >= len(m.pes) {
		panic(fmt.Sprintf("converse: PE %d out of range [0,%d)", pe, len(m.pes)))
	}
	if int(h) < 0 || int(h) >= len(m.handlers) {
		panic(fmt.Sprintf("converse: handler %d not registered", h))
	}
}

// Run processes events until quiescence (no events left) or Stop. It
// returns the final virtual time.
func (m *Machine) Run() float64 {
	for !m.stopped && len(m.events) > 0 {
		ev := m.events.pop()
		m.now = ev.time()
		pe := m.pes[ev.pe]
		switch ev.lo >> kindShift {
		case kindDone:
			pe.busy = false
			if pe.ready.len() > 0 {
				m.startExec(pe)
			}
		case kindArrive:
			mg := &m.msgs[ev.arg]
			if m.immediate[mg.handler] {
				m.execute(pe, m.take(ev.arg), false)
				continue
			}
			pe.ready.push(readyKey(mg.prio, ev.lo&seqMask, ev.arg))
			if !pe.busy {
				m.startExec(pe)
			}
		}
	}
	return m.now
}

// startExec pops the best-priority ready message on pe and executes it
// on the worker.
func (m *Machine) startExec(pe *PE) {
	mg := m.take(pe.ready.pop().arg)
	pe.busy = true
	m.execute(pe, mg, true)
}

// execute runs mg's handler on pe at the current virtual time on the
// machine's one Ctx, charging receive overhead, the handler's own
// charges, and send costs. A worker execution occupies the PE until
// start + total, when its completion event fires. An immediate handler
// runs on the PE's communication processor: the worker's busy state and
// scheduler queue are untouched, and its charges delay only its own
// outgoing messages; its time is accounted separately (PE.CommTime) so
// worker utilization still means entry-method execution.
func (m *Machine) execute(pe *PE, mg msg, worker bool) {
	pe.MsgsRecv++
	c := &m.ctx
	c.pe, c.start, c.dur, c.obj, c.tag = pe, m.now, 0, 0, mg.tag
	recvCost := m.Net.RecvOverhead
	if mg.local {
		recvCost = m.Net.LocalRecvOverhead
	}
	if recvCost > 0 {
		c.charge(recvCost, trace.CatRecv)
	}
	m.handlers[mg.handler](c, mg.payload, mg.size)

	end := m.now + c.dur
	if worker {
		pe.BusyTime += c.dur
		m.schedule(end, kindDone, pe.id, 0)
	} else {
		pe.CommTime += c.dur
	}
	if m.Trace.Enabled() {
		m.Trace.Add(trace.ExecRecord{
			PE:    pe.id,
			Obj:   c.obj,
			Entry: m.handlerNames[mg.handler],
			Start: m.now,
			End:   end,
			Spans: append([]trace.Span(nil), c.spans...), // the record owns its spans
		})
	}
	m.dispatchOutbox(pe, c, end)
	c.spans = c.spans[:0]
	clear(c.outbox)
	c.outbox = c.outbox[:0]
}

// dispatchOutbox queues the messages sent during an execution: they
// leave the PE at completion time and arrive after latency +
// transmission, or at completion time on the sender's own PE.
func (m *Machine) dispatchOutbox(pe *PE, c *Ctx, end float64) {
	for _, out := range c.outbox {
		m.TotalMsgs++
		m.TotalBytes += out.size
		t := end
		if out.to != pe.id {
			t += m.Net.Latency + float64(out.size)*m.Net.PerByte
		}
		m.schedule(t, kindArrive, out.to, m.store(out))
	}
}

// PEStats returns per-PE busy time (virtual seconds) and message counts.
func (m *Machine) PEStats() (busy []float64, msgs []int) {
	busy = make([]float64, len(m.pes))
	msgs = make([]int, len(m.pes))
	for i, pe := range m.pes {
		busy[i] = pe.BusyTime
		msgs[i] = pe.MsgsRecv
	}
	return
}

// Ctx is passed to handlers; it charges virtual time and sends messages.
// A machine runs every execution on one Ctx, so a handler must not keep
// it past its return.
type Ctx struct {
	m      *Machine
	pe     *PE
	start  float64
	dur    float64
	obj    int32
	tag    uint64
	spans  []trace.Span
	outbox []msg
}

// PE returns the executing processor's id.
func (c *Ctx) PE() int { return int(c.pe.id) }

// NumPE returns the machine's processor count.
func (c *Ctx) NumPE() int { return len(c.m.pes) }

// Now returns the virtual time at the current point of the execution
// (start time plus time charged so far).
func (c *Ctx) Now() float64 { return c.start + c.dur }

// Machine returns the underlying machine (e.g. to Stop it).
func (c *Ctx) Machine() *Machine { return c.m }

// Tag returns the tag word of the message being executed: 0 unless it
// was sent by a *Tagged call. Higher layers carry small routing words in
// it (the charm runtime's object and entry ids) instead of boxing them
// into the payload.
func (c *Ctx) Tag() uint64 { return c.tag }

// SetObj tags the trace record of this execution with an object id.
func (c *Ctx) SetObj(obj int32) { c.obj = obj }

// Charge consumes dt seconds of virtual CPU time in the given category.
func (c *Ctx) Charge(dt float64, cat trace.Category) {
	if dt < 0 {
		panic("converse: negative charge")
	}
	c.charge(dt, cat)
}

func (c *Ctx) charge(dt float64, cat trace.Category) {
	if dt == 0 {
		return
	}
	c.dur += dt
	// Merge with previous span of the same category to keep records small.
	if n := len(c.spans); n > 0 && c.spans[n-1].Cat == cat {
		c.spans[n-1].Dur += dt
		return
	}
	c.spans = append(c.spans, trace.Span{Cat: cat, Dur: dt})
}

// Elapsed returns the virtual CPU time charged so far in this execution.
func (c *Ctx) Elapsed() float64 { return c.dur }

// Send queues a message to another PE, charging the sender's CPU cost.
// The message leaves when this execution completes. Sends to the local
// PE charge only LocalSendOverhead (no packing, no wire).
func (c *Ctx) Send(to int, h HandlerID, payload any, size int, prio int64) {
	c.SendTagged(to, h, 0, payload, size, prio)
}

// SendTagged is Send with a tag word the handler reads via Ctx.Tag.
func (c *Ctx) SendTagged(to int, h HandlerID, tag uint64, payload any, size int, prio int64) {
	c.m.validate(to, h)
	local := to == int(c.pe.id)
	if local {
		c.charge(c.m.Net.LocalSendOverhead, trace.CatComm)
	} else {
		c.charge(c.m.Net.SendOverhead+float64(size)*c.m.Net.SendPerByte, trace.CatComm)
	}
	c.outbox = append(c.outbox, msg{to: int32(to), handler: h, tag: tag, payload: payload, size: size, prio: prio, local: local})
}

// SendFree queues a message without charging any CPU cost. Higher layers
// (e.g. the charm object runtime's optimized multicast) use it when they
// account for packing costs themselves; wire latency and bandwidth still
// apply.
func (c *Ctx) SendFree(to int, h HandlerID, payload any, size int, prio int64) {
	c.SendFreeTagged(to, h, 0, payload, size, prio)
}

// SendFreeTagged is SendFree with a tag word the handler reads via
// Ctx.Tag.
func (c *Ctx) SendFreeTagged(to int, h HandlerID, tag uint64, payload any, size int, prio int64) {
	c.m.validate(to, h)
	c.outbox = append(c.outbox, msg{to: int32(to), handler: h, tag: tag, payload: payload, size: size, prio: prio, local: to == int(c.pe.id)})
}

// Multicast sends the same payload to every destination. In naive mode
// each destination pays the full packing cost (the behaviour the paper
// found consuming half of the integration method); with
// Net.MulticastOptimized the payload is packed once and each destination
// costs only MulticastPerDest.
func (c *Ctx) Multicast(dests []int32, h HandlerID, payload any, size int, prio int64) {
	if len(dests) == 0 {
		return
	}
	if c.m.Net.MulticastOptimized {
		c.charge(c.m.Net.SendOverhead+float64(size)*c.m.Net.SendPerByte, trace.CatComm)
		c.charge(float64(len(dests))*c.m.Net.MulticastPerDest, trace.CatComm)
		for _, d := range dests {
			c.m.validate(int(d), h)
			c.outbox = append(c.outbox, msg{to: d, handler: h, payload: payload, size: size, prio: prio})
		}
	} else {
		for _, d := range dests {
			c.Send(int(d), h, payload, size, prio)
		}
	}
}
