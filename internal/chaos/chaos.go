// Package chaos is the deterministic fault-injection engine behind the
// robustness evaluation: it wraps the object storage cloud, the cluster's
// nodes, and the gossip bus with declarative fault plans — transient
// per-operation error rates, latency spikes charged to the simulator's
// virtual clock, node crash/restart schedules, and gossip message
// drop/delay.
//
// Every decision is a pure function of (seed, fault kind, object name,
// per-name occurrence number), not of goroutine scheduling or global call
// order, so two runs of the same seeded experiment inject byte-identical
// fault sequences even when the middleware fans operations out
// concurrently. That is what lets the availability experiment
// (internal/bench) assert determinism and lets failing chaos tests be
// replayed from nothing but their seed.
package chaos

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/storemw"
)

// Event is one entry of a crash/restart schedule: at step Step (as
// counted by Engine.Step) the node flips to Down.
type Event struct {
	Step int64
	Node int
	Down bool
}

// Plan declares the faults an Engine injects. The zero value injects
// nothing, which is what targeted-trigger tests use.
type Plan struct {
	// Seed drives every probabilistic decision. Two engines with equal
	// plans make identical decisions.
	Seed int64
	// ErrRate is the probability that a store primitive fails with a
	// transient error (wrapping objstore.ErrNodeDown, so callers'
	// typed-error retry logic engages).
	ErrRate float64
	// SpikeRate and Spike inject latency: with probability SpikeRate a
	// primitive charges an extra 0.5×–1.5× Spike to the virtual clock
	// before executing. Spikes never block wall time.
	SpikeRate float64
	Spike     time.Duration
	// DropRate and DelayRate act on gossip broadcasts: dropped messages
	// vanish; delayed ones are buffered until ReleaseDelayed.
	DropRate  float64
	DelayRate float64
	// Events is the node crash/restart schedule, applied by Step in
	// ascending step order against the bound NodeFailer.
	Events []Event
}

// NodeFailer is the slice of cluster.Cluster the crash schedule needs.
type NodeFailer interface {
	SetNodeDown(id int, down bool)
}

// Engine makes the fault decisions for one experiment or test, and wraps
// one store (Store) and any number of gossip buses. It is safe for
// concurrent use.
type Engine struct {
	plan Plan
	reg  *metrics.Registry // where the engine counts what it injected; may be nil

	step    atomic.Int64
	events  []Event // sorted by step
	nextEv  atomic.Int64
	errRate atomic.Uint64 // math.Float64bits of the live error rate

	mu       sync.Mutex
	seqs     map[string]int64      // per-(kind|name) occurrence counters
	triggers map[storemw.Op]string // FailOn substrings

	failerMu sync.Mutex
	failer   NodeFailer
}

// New builds an engine for the plan. It counts every fault it injects in
// reg ("chaos.faults", "chaos.spikes", "chaos.gossipDropped",
// "chaos.gossipDelayed", "chaos.crashes", "chaos.restarts"), beside the
// retry and degradation counters; a nil reg counts nothing.
func New(plan Plan, reg *metrics.Registry) *Engine {
	events := make([]Event, len(plan.Events))
	copy(events, plan.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Step < events[j].Step })
	e := &Engine{plan: plan, reg: reg, events: events, seqs: make(map[string]int64), triggers: make(map[storemw.Op]string)}
	e.errRate.Store(math.Float64bits(plan.ErrRate))
	return e
}

// SetErrRate changes the live transient-error rate, closing (rate 0) or
// reopening the fault window. Experiments use it to stop injecting while
// they verify that everything acknowledged during the window survived.
// The hash streams are untouched, so decisions stay deterministic as long
// as the call itself happens at a deterministic point.
func (e *Engine) SetErrRate(rate float64) {
	e.errRate.Store(math.Float64bits(rate))
}

// liveErrRate reads the current transient-error rate.
func (e *Engine) liveErrRate() float64 {
	return math.Float64frombits(e.errRate.Load())
}

// Bind attaches the cluster (or any NodeFailer) the crash/restart
// schedule manipulates. Steps before Bind apply no events.
func (e *Engine) Bind(f NodeFailer) {
	e.failerMu.Lock()
	defer e.failerMu.Unlock()
	e.failer = f
}

// boundFailer reads the schedule target under its lock.
func (e *Engine) boundFailer() NodeFailer {
	e.failerMu.Lock()
	defer e.failerMu.Unlock()
	return e.failer
}

// Step advances the experiment's logical timeline by one operation and
// applies every scheduled crash/restart event that has come due. The
// driving experiment calls Step once per workload operation.
func (e *Engine) Step() {
	now := e.step.Add(1)
	f := e.boundFailer()
	for {
		i := e.nextEv.Load()
		if i >= int64(len(e.events)) || e.events[i].Step > now {
			return
		}
		if !e.nextEv.CompareAndSwap(i, i+1) {
			continue // another Step claimed this event
		}
		ev := e.events[i]
		if f != nil {
			f.SetNodeDown(ev.Node, ev.Down)
		}
		if ev.Down {
			e.reg.Inc("chaos.crashes", 1)
		} else {
			e.reg.Inc("chaos.restarts", 1)
		}
	}
}

// seq returns the n-th occurrence number of key, starting at 0. Distinct
// keys advance independently, so concurrent operations on different
// objects cannot perturb each other's fault decisions.
func (e *Engine) seq(key string) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.seqs[key]
	e.seqs[key] = n + 1
	return n
}

// roll draws the deterministic pseudo-random fraction in [0, 1) for the
// n-th occurrence of (kind, name): an FNV-1a hash of the seed and the
// identifying strings, scaled to a float. It is the engine's only source
// of randomness — no global PRNG state, no call-order dependence.
func (e *Engine) roll(kind, name string, n int64) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(strconv.FormatInt(e.plan.Seed, 10)))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(kind))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(name))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(strconv.FormatInt(n, 10)))
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// decide rolls one fault decision: the n-th (kind, name) occurrence
// fails iff its hash fraction falls under rate.
func (e *Engine) decide(kind, name string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	return e.roll(kind, name, e.seq(kind+"\x00"+name)) < rate
}

// spikeFor rolls a latency spike for one primitive: zero most of the
// time, otherwise 0.5×–1.5× the plan's Spike, the fraction drawn from
// the same deterministic hash stream.
func (e *Engine) spikeFor(op storemw.Op, name string) time.Duration {
	if e.plan.SpikeRate <= 0 || e.plan.Spike <= 0 {
		return 0
	}
	key := "spike." + string(op)
	n := e.seq(key + "\x00" + name)
	if e.roll(key, name, n) >= e.plan.SpikeRate {
		return 0
	}
	frac := 0.5 + e.roll(key+".mag", name, n)
	return time.Duration(frac * float64(e.plan.Spike))
}
