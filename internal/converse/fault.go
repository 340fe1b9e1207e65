// Fault injection for the simulated machine: a deterministic, seeded
// plan of message faults (drop, delay, duplicate, reorder) and processor
// crash/restart events. Faults model an unreliable interconnect and
// fail-stop processors underneath the message-driven runtime, so the
// recovery protocols layered above (internal/charm's ack/retry,
// internal/core's checkpoint rollback) can be exercised and tested
// without any real hardware failing.
//
// Determinism: all random decisions are drawn from one xrand stream in
// event order, and the event schedule itself is deterministic, so a
// given (program, plan) pair produces the same fault schedule and the
// same outcome on every run.
package converse

import (
	"fmt"
	"sort"

	"gonamd/internal/trace"
	"gonamd/internal/xrand"
)

// Crash schedules one fail-stop failure of a processor: at the first
// event at or after virtual time At, the PE goes down, losing every
// message queued on it and every message that arrives while it is down;
// it restarts empty Down seconds later.
type Crash struct {
	PE   int
	At   float64 // virtual time of the failure, s
	Down float64 // downtime before restart, s
}

// FaultPlan describes the faults to inject into a run. Probabilities
// apply independently to every remote message as it is dispatched (local
// messages and timers are exempt: they never cross the wire). The zero
// value injects nothing.
type FaultPlan struct {
	// Seed seeds the fault decision stream.
	Seed uint64

	// DropProb is the probability a remote message is silently lost.
	DropProb float64

	// DelayProb is the probability a remote message is held in the
	// network an extra uniform [0, DelayMax) seconds.
	DelayProb float64
	DelayMax  float64

	// DupProb is the probability a remote message is delivered twice,
	// the duplicate arriving up to DelayMax later (immediately after the
	// original when DelayMax is zero).
	DupProb float64

	// ReorderProb is the probability a remote message trades delivery
	// slots (arrival time and queue position) with the previous remote
	// message sent by the same execution, delivering them out of send
	// order.
	ReorderProb float64

	// Crashes are the scheduled processor failures, applied in time
	// order regardless of slice order.
	Crashes []Crash

	rng *xrand.RNG
}

// FaultStats counts the faults a machine actually injected or suffered.
type FaultStats struct {
	Dropped    int // remote messages silently lost
	Delayed    int // remote messages held back
	Duplicated int // remote messages delivered twice
	Reordered  int // remote message pairs swapped
	Lost       int // messages destroyed by a crash (queued or arriving while down)
	Crashes    int // PE failures
	Restarts   int // PE restarts
}

// SetFaultPlan installs a fault plan on the machine. It must be called
// before Run, and at most once. Crash times are validated against the
// machine's PE count.
func (m *Machine) SetFaultPlan(p *FaultPlan) {
	if p == nil {
		return
	}
	if m.fault != nil {
		panic("converse: fault plan already installed")
	}
	for _, c := range p.Crashes {
		if c.PE < 0 || c.PE >= len(m.pes) {
			panic(fmt.Sprintf("converse: crash PE %d out of range [0,%d)", c.PE, len(m.pes)))
		}
		if c.Down < 0 {
			panic(fmt.Sprintf("converse: crash on PE %d has negative downtime", c.PE))
		}
	}
	p.rng = xrand.New(p.Seed ^ 0xfa_17_b1_a5_0dd5)
	m.fault = p
	m.crashes = append([]Crash(nil), p.Crashes...)
	sort.SliceStable(m.crashes, func(i, j int) bool { return m.crashes[i].At < m.crashes[j].At })
}

// Down reports whether a PE is currently crashed.
func (m *Machine) Down(pe int) bool { return m.pes[pe].down }

// messageFaults applies the plan's message faults to one execution's
// outbox of remote messages. arrive[i] is the computed arrival time of
// outbox message i; drop[i] marks dropped messages, dupJitter[i] (when
// it turns non-negative) is the duplicate copy's extra delay, and
// arrival times are perturbed in place for delays and reorders. Local
// messages (including timers) pass through untouched. Decisions are
// drawn in outbox order: drop, delay, duplicate, reorder for each
// message in turn.
func (m *Machine) messageFaults(pe *PE, outbox []msg, arrive []float64, drop []bool, dupJitter []float64) {
	p := m.fault
	prevRemote := -1
	for i, out := range outbox {
		if out.local || out.to == pe.id {
			continue
		}
		if p.DropProb > 0 && p.rng.Float64() < p.DropProb {
			drop[i] = true
			m.Stats.Dropped++
			m.faultRecord("fault.drop", out.to, arrive[i])
			continue
		}
		if p.DelayProb > 0 && p.rng.Float64() < p.DelayProb {
			arrive[i] += p.rng.Float64() * p.DelayMax
			m.Stats.Delayed++
			m.faultRecord("fault.delay", out.to, arrive[i])
		}
		if p.DupProb > 0 && p.rng.Float64() < p.DupProb {
			dupJitter[i] = 0
			if p.DelayMax > 0 {
				dupJitter[i] = p.rng.Float64() * p.DelayMax
			}
			m.Stats.Duplicated++
			m.faultRecord("fault.dup", out.to, arrive[i])
		}
		if p.ReorderProb > 0 && prevRemote >= 0 && !drop[prevRemote] &&
			p.rng.Float64() < p.ReorderProb {
			// Trade delivery slots: each message takes the other's arrival
			// time AND queue position, so the swap reorders delivery even
			// when the two arrival times are identical (one execution's
			// outbox all arrives at completion + wire time).
			outbox[i], outbox[prevRemote] = outbox[prevRemote], outbox[i]
			dupJitter[i], dupJitter[prevRemote] = dupJitter[prevRemote], dupJitter[i]
			m.Stats.Reordered++
			m.faultRecord("fault.reorder", out.to, arrive[i])
		}
		prevRemote = i
	}
}

// checkCrash fires any scheduled crash due at or before virtual time t,
// returning true if one fired. Crashes are event-driven: a crash fires
// just before the first event at or after its scheduled time.
func (m *Machine) checkCrash(t float64) bool {
	if m.crashIdx >= len(m.crashes) || m.crashes[m.crashIdx].At > t {
		return false
	}
	c := m.crashes[m.crashIdx]
	m.crashIdx++
	if c.At > m.now {
		m.now = c.At
	}
	pe := m.pes[c.PE]
	pe.down = true
	pe.busy = false
	pe.incarnation++
	m.Stats.Lost += pe.ready.len()
	pe.ready.wipe(m.release)
	m.Stats.Crashes++
	m.faultRecord("fault.crash", pe.id, m.now)
	if m.OnCrash != nil {
		m.OnCrash(c.PE, m.now)
	}
	// Schedule the restart as an ordinary event so a stalled machine
	// still advances to it before quiescing.
	m.schedule(m.now+c.Down, kindRestart, pe.id, 0)
	return true
}

// restart brings a crashed PE back up, empty.
func (m *Machine) restart(pe *PE) {
	if !pe.down {
		return
	}
	pe.down = false
	pe.busy = false
	m.Stats.Restarts++
	m.faultRecord("fault.restart", pe.id, m.now)
	if m.OnRestart != nil {
		m.OnRestart(int(pe.id), m.now)
	}
}

// faultRecord adds a zero-duration trace record marking an injected
// fault, so Projections-style output shows where faults struck.
func (m *Machine) faultRecord(entry string, pe int32, t float64) {
	if !m.Trace.Enabled() {
		return
	}
	cat := trace.CatFault
	if entry == "fault.restart" {
		cat = trace.CatRecovery
	}
	m.Trace.Add(trace.ExecRecord{
		PE: pe, Obj: -1, Entry: entry, Start: t, End: t,
		Spans: []trace.Span{{Cat: cat, Dur: 0}},
	})
}
