// Reliable entry-method delivery: an ack/timeout/retry protocol layered
// under the object runtime so sends survive an unreliable network (the
// converse layer's fault plan can drop, duplicate, and reorder
// messages). Every reliable send carries a runtime-unique sequence
// number; the receiving PE acknowledges it and suppresses duplicates, so
// retransmission makes delivery at-least-once on the wire while the
// dedup filter keeps entry-method invocation exactly-once. Timeouts back
// off exponentially, and a bounded retry count keeps a permanently dead
// destination from spinning forever (a crashed PE's recovery is the
// checkpoint-rollback layer's job, not this one's).
package charm

import (
	"fmt"

	"gonamd/internal/converse"
	"gonamd/internal/trace"
)

// ReliableConfig tunes the ack/retry protocol.
type ReliableConfig struct {
	// Timeout is the initial retransmission timeout in virtual seconds.
	// It should comfortably exceed a round trip including queueing, or
	// healthy traffic is retransmitted for nothing (dedup keeps that
	// harmless but not free).
	Timeout float64

	// Backoff multiplies the timeout after every retry (default 2).
	Backoff float64

	// MaxRetries bounds retransmissions per message (default 10); after
	// that the send is abandoned and counted in Stats.GiveUps.
	MaxRetries int

	// AckBytes is the modeled size of an ack message (default 16).
	AckBytes int
}

// ReliableStats counts protocol activity.
type ReliableStats struct {
	Sends      int // reliable sends initiated
	Acks       int // acks received by senders
	Retries    int // retransmissions
	Duplicates int // duplicate deliveries suppressed by the receiver
	GiveUps    int // sends abandoned after MaxRetries
}

// relEnvelope wraps a reliable send's payload with the sequencing the
// protocol needs; the object and entry ride in the tag word as for any
// send.
type relEnvelope struct {
	seq     uint64
	from    int32 // sender PE, where acks are routed and retries fire
	payload any
}

// pendingSend is an unacknowledged reliable send on the sender's side.
type pendingSend struct {
	env      relEnvelope
	obj      ObjID
	entry    EntryID
	size     int
	prio     int64
	attempts int
	timeout  float64
}

// EnableReliable turns on reliable delivery for every subsequent
// entry-method send. Must be called before the machine runs.
func (rt *Runtime) EnableReliable(cfg ReliableConfig) {
	if rt.reliable {
		panic("charm: reliable delivery already enabled")
	}
	if !(cfg.Timeout > 0) {
		panic(fmt.Sprintf("charm: reliable Timeout %v, want > 0", cfg.Timeout))
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 2
	}
	if cfg.Backoff < 1 {
		panic(fmt.Sprintf("charm: reliable Backoff %v, want >= 1", cfg.Backoff))
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 10
	}
	if cfg.AckBytes == 0 {
		cfg.AckBytes = 16
	}
	rt.reliable = true
	rt.relCfg = cfg
	rt.pending = map[uint64]*pendingSend{}
	rt.delivered = map[uint64]struct{}{}
	rt.ackH = rt.M.RegisterHandler("charm.ack", rt.onAck)
	rt.retryH = rt.M.RegisterHandler("charm.retry", rt.onRetryTimer)
}

// ResetReliable drops all protocol state — pending retransmissions and
// the dedup filter. Recovery layers call it when rolling the whole
// application back to a checkpoint, because every in-flight message is
// then obsolete.
func (rt *Runtime) ResetReliable() {
	if !rt.reliable {
		return
	}
	for k := range rt.pending {
		delete(rt.pending, k)
	}
	for k := range rt.delivered {
		delete(rt.delivered, k)
	}
}

// sendReliable performs one reliable entry-method send: transmit the
// wrapped payload, record it pending, and arm the retransmission timer.
func (rt *Runtime) sendReliable(cc *converse.Ctx, obj ObjID, e EntryID, payload any, size int, prio int64, free bool) {
	rt.relSeq++
	env := relEnvelope{seq: rt.relSeq, from: int32(cc.PE()), payload: payload}
	if free {
		cc.SendFreeTagged(rt.Location(obj), rt.dispatchH, invocation(obj, e), env, size, prio)
	} else {
		cc.SendTagged(rt.Location(obj), rt.dispatchH, invocation(obj, e), env, size, prio)
	}
	rt.pending[env.seq] = &pendingSend{env: env, obj: obj, entry: e, size: size, prio: prio, timeout: rt.relCfg.Timeout}
	rt.Rel.Sends++
	cc.AfterTagged(rt.relCfg.Timeout, rt.retryH, env.seq, nil, 0, prio)
}

// recvReliable runs the receiver half: ack unconditionally (the sender
// may have missed an earlier ack), then report whether this sequence
// number has been seen before. The ack's cost is charged as protocol
// overhead (CatRetry), not application communication.
func (rt *Runtime) recvReliable(cc *converse.Ctx, env relEnvelope) (duplicate bool) {
	net := &rt.M.Net
	cc.Charge(net.SendOverhead+float64(rt.relCfg.AckBytes)*net.SendPerByte, trace.CatRetry)
	cc.SendFreeTagged(int(env.from), rt.ackH, env.seq, nil, rt.relCfg.AckBytes, 0)
	if _, seen := rt.delivered[env.seq]; seen {
		rt.Rel.Duplicates++
		return true
	}
	rt.delivered[env.seq] = struct{}{}
	return false
}

// onAck clears the pending entry for an acknowledged send, whose
// sequence number the ack carries in its tag word. Duplicate acks
// (retransmitted data crossing with the first ack) are no-ops.
func (rt *Runtime) onAck(cc *converse.Ctx, payload any, size int) {
	seq := cc.Tag()
	if _, ok := rt.pending[seq]; ok {
		delete(rt.pending, seq)
		rt.Rel.Acks++
	}
}

// onRetryTimer fires on the sending PE when a retransmission timeout
// expires; the timer's tag word is the send's sequence number. If the
// send is still unacknowledged it is retransmitted with an
// exponentially backed-off timeout, re-resolving the destination
// object's current location; after MaxRetries it is abandoned.
func (rt *Runtime) onRetryTimer(cc *converse.Ctx, payload any, size int) {
	seq := cc.Tag()
	p, ok := rt.pending[seq]
	if !ok {
		return // acked in the meantime
	}
	if p.attempts >= rt.relCfg.MaxRetries {
		delete(rt.pending, seq)
		rt.Rel.GiveUps++
		return
	}
	p.attempts++
	p.timeout *= rt.relCfg.Backoff
	rt.Rel.Retries++
	net := &rt.M.Net
	cc.Charge(net.SendOverhead+float64(p.size)*net.SendPerByte, trace.CatRetry)
	cc.SendFreeTagged(rt.Location(p.obj), rt.dispatchH, invocation(p.obj, p.entry), p.env, p.size, p.prio)
	cc.AfterTagged(p.timeout, rt.retryH, seq, nil, 0, p.prio)
}
