package chaos

import (
	"fmt"
	"sync"

	"github.com/h2cloud/h2cloud/internal/gossip"
)

// Bus wraps a gossip.Broadcaster with the plan's message drop/delay
// faults. Dropped advertisements vanish (the receiving nodes reconverge
// only through a later advert, a flush read-back, or anti-entropy
// Repair); delayed ones are buffered until ReleaseDelayed, modelling a
// slow inter-middleware link.
type Bus struct {
	inner gossip.Broadcaster
	eng   *Engine

	mu      sync.Mutex
	delayed []delayedMsg
}

type delayedMsg struct {
	from int
	msg  gossip.Message
}

var _ gossip.Broadcaster = (*Bus)(nil)

// Gossip wraps inner with this engine's drop/delay plan.
func (e *Engine) Gossip(inner gossip.Broadcaster) *Bus {
	return &Bus{inner: inner, eng: e}
}

// Register forwards handler registration to the wrapped bus when it is a
// registrar itself (the usual case: a *gossip.Bus), so middlewares
// configured with a chaos Bus still receive peer adverts. Only the send
// side is faulted; delivery of accepted broadcasts stays reliable.
func (b *Bus) Register(node int, h gossip.Handler) {
	if reg, ok := b.inner.(gossip.Registrar); ok {
		reg.Register(node, h)
	}
}

// msgKey identifies a broadcast for fault keying.
func msgKey(from int, msg gossip.Message) string {
	return fmt.Sprintf("%d|%s|%s|%d|%d", from, msg.Account, msg.NS, msg.Origin, msg.Version)
}

// Broadcast implements gossip.Broadcaster, rolling drop before delay.
func (b *Bus) Broadcast(from int, msg gossip.Message) {
	key := msgKey(from, msg)
	if b.eng.decide("gossip.drop", key, b.eng.plan.DropRate) {
		b.eng.reg.Inc("chaos.gossipDropped", 1)
		return
	}
	if b.eng.decide("gossip.delay", key, b.eng.plan.DelayRate) {
		b.eng.reg.Inc("chaos.gossipDelayed", 1)
		b.bufferDelayed(delayedMsg{from: from, msg: msg})
		return
	}
	b.inner.Broadcast(from, msg)
}

// bufferDelayed appends under the buffer lock.
func (b *Bus) bufferDelayed(d delayedMsg) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.delayed = append(b.delayed, d)
}

// takeDelayed drains the buffer under the lock; forwarding happens
// outside it (Broadcast may re-enter the wrapped bus).
func (b *Bus) takeDelayed() []delayedMsg {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.delayed
	b.delayed = nil
	return out
}

// ReleaseDelayed forwards every buffered broadcast, in the order the
// faults deferred them, and reports how many it released. Experiments
// call it between rounds (and before asserting convergence) so delayed
// gossip arrives late rather than never.
func (b *Bus) ReleaseDelayed() int {
	msgs := b.takeDelayed()
	for _, d := range msgs {
		b.inner.Broadcast(d.from, d.msg)
	}
	return len(msgs)
}

// PendingDelayed reports how many broadcasts are currently buffered.
func (b *Bus) PendingDelayed() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.delayed)
}
