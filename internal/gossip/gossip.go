// Package gossip implements the inter-node spread of NameRing update
// advertisements (paper §3.3.2, phase 2, step 2).
//
// Each gossip message is a (N_i, H_j, t_k) tuple: "the local version of
// NameRing N_i in node H_j has been updated at timestamp t_k". A node
// receiving a gossip fetches the updated version, merges it into its local
// version, and puts the gossip forward; forwarding stops when the local
// timestamp already covers the advertised one, which prevents propagation
// loop-back.
//
// The Bus is an in-process transport connecting the H2Middlewares of one
// deployment. Delivery is queued: Broadcast enqueues, and either Pump
// (deterministic, used by tests and benchmarks) or Run (background, used
// by the daemon) drains the queue. Fan-out is deterministic: one
// broadcast enqueues its envelopes in ascending node order, so repeated
// simulations deliver in identical order regardless of map hash seeding.
//
// Locking discipline (enforced by cmd/h2vet lockcheck): the bus mutex is
// only ever held inside small defer-scoped helpers, and handlers are
// always invoked with no lock held, so a handler may freely call back
// into Broadcast.
package gossip

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Message is one gossip advertisement.
type Message struct {
	Account string // owning account
	NS      string // namespace of the updated NameRing (N_i)
	Origin  int    // node whose local version changed (H_j)
	Version int64  // update timestamp (t_k), nanoseconds
}

// Handler consumes a gossip message on a node. Handlers may call Broadcast
// to put the message forward.
type Handler func(ctx context.Context, msg Message)

// Broadcaster is the sending side used by middlewares.
type Broadcaster interface {
	// Broadcast enqueues msg for delivery to every node except from.
	Broadcast(from int, msg Message)
}

// Registrar is implemented by transports that can deliver to per-node
// handlers: the Bus itself, and wrappers (such as the chaos fault
// injector's bus) that forward registration to a wrapped Bus.
type Registrar interface {
	Register(node int, h Handler)
}

// Bus is an in-process gossip transport; build one with NewBus.
type Bus struct {
	mu       sync.Mutex
	handlers map[int]Handler // guarded by mu
	queue    []envelope      // guarded by mu
	closed   bool            // guarded by mu

	notify chan struct{} // buffered wakeup for Run; set once by NewBus
	done   chan struct{} // closed by Close; set once by NewBus
}

type envelope struct {
	to  int
	msg Message
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{
		handlers: make(map[int]Handler),
		notify:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
}

// Register installs the handler for a node. Registering a node twice
// replaces its handler.
func (b *Bus) Register(node int, h Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers[node] = h
}

// Broadcast enqueues msg for every registered node except from, in
// ascending node order. Broadcasts on a closed bus are dropped.
func (b *Bus) Broadcast(from int, msg Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	nodes := make([]int, 0, len(b.handlers))
	for node := range b.handlers {
		if node != from {
			nodes = append(nodes, node)
		}
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		b.queue = append(b.queue, envelope{to: node, msg: msg})
	}
	// Non-blocking wakeup; Run coalesces missed signals via its ticker.
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// pop dequeues the next envelope and resolves its handler under the lock.
func (b *Bus) pop() (envelope, Handler, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		return envelope{}, nil, false
	}
	env := b.queue[0]
	b.queue = b.queue[1:]
	return env, b.handlers[env.to], true
}

// Pump synchronously delivers every queued message, including messages
// enqueued by handlers during the pump, until the queue is empty. It
// returns the number of messages delivered. Tests and benchmarks use Pump
// to drive the protocol deterministically. Handlers run with no bus lock
// held.
func (b *Bus) Pump(ctx context.Context) int {
	delivered := 0
	for {
		env, h, ok := b.pop()
		if !ok {
			return delivered
		}
		if h != nil {
			h(ctx, env.msg)
		}
		delivered++
	}
}

// Pending reports the number of undelivered messages.
func (b *Bus) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// Close marks the bus closed and wakes Run, which drains the remaining
// queue and returns. Later Broadcasts are dropped; Close is idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	close(b.done)
}

// Run delivers messages until ctx is cancelled or the bus is closed,
// waking on new broadcasts and polling at the given interval as a safety
// net. Messages already queued when Run stops are drained before it
// returns, so no accepted broadcast is lost.
func (b *Bus) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		b.Pump(ctx)
		select {
		case <-ctx.Done():
			b.Pump(ctx) // final drain: deliver everything accepted so far
			return
		case <-b.done:
			b.Pump(ctx)
			return
		case <-b.notify:
		case <-ticker.C:
		}
	}
}
