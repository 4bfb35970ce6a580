// Package pipeline runs a dynamically discovered set of storage tasks on
// a bounded set of runners and charges their overlapped virtual cost as
// one window.
//
// The maintenance operations over a subtree (COPY, GC, anti-entropy
// repair) cannot enumerate their work up front: expanding one NameRing
// discovers more directories to expand, and the paper's whole design is
// that those expansions are independent object reads that an object cloud
// absorbs concurrently. vclock.Fanout needs the full task slice before it
// starts, so this package provides the dynamic counterpart: tasks may
// spawn further tasks while running, every task's simulated service time
// is captured, and Wait charges the LPT makespan of all captured
// durations to the parent request — the same bounded-worker schedule
// model vclock.Makespan applies to static fan-out.
//
// Substrate: one FIFO work queue and one run loop. Go, Group.Go and
// group finalizers only enqueue; nothing runs before Wait. Wait starts
// workers-1 helper goroutines, runs the same loop on the caller's
// goroutine, and returns once the queue is empty and no task is running.
// At workers = 1 — the default everywhere — no goroutine is created: the
// whole walk executes on the caller's stack, in submission order. Each
// runner owns one child vclock tracker for its lifetime and records a
// task's cost as the tracker's reading after the task minus before it,
// so the cost list is the one a tracker per task would have produced.
//
// Determinism: the result of a run never depends on goroutine
// scheduling. Charges are collected per task and folded through the
// order-insensitive Makespan, and Wait reports the failed task with the
// lexicographically smallest label, so concurrent failures resolve
// identically on every run. A label is kept as its parts and joined only
// for a task that failed.
package pipeline

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/h2cloud/h2cloud/internal/vclock"
)

// Engine is one bounded-fanout task queue. Create with New, submit tasks
// with Go or through Groups, then call Wait exactly once; the Engine is
// not reusable afterwards.
type Engine struct {
	ctx     context.Context
	workers int
	helpers sync.WaitGroup

	mu      sync.Mutex
	wake    *sync.Cond // signalled on enqueue, broadcast when the engine drains
	queue   []task     // FIFO; queue[:head] already taken
	head    int
	running int // tasks taken and not yet finished
	costs   []time.Duration
	fails   []taskFailure
}

// task is one queued unit of work. Its label is prefix, then "/"+name
// when name is non-empty, then kind.
type task struct {
	g                  *Group
	prefix, name, kind string
	fn                 func(context.Context) error
}

func (t *task) label() string {
	if t.name == "" {
		return t.prefix + t.kind
	}
	return t.prefix + "/" + t.name + t.kind
}

type taskFailure struct {
	label string
	err   error
}

// New returns an engine that runs at most workers tasks concurrently.
// Values below 1 mean sequential execution (and a sequential, summed
// charge — identical to the unpipelined code path it replaces).
func New(ctx context.Context, workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	e := &Engine{ctx: ctx, workers: workers}
	e.wake = sync.NewCond(&e.mu)
	return e
}

// Go submits a top-level task. The label identifies the task in error
// reports and must be unique and schedule-independent for determinism.
// Tasks may themselves call Go, NewGroup, or Group.Go.
func (e *Engine) Go(label string, fn func(context.Context) error) {
	e.submit(task{prefix: label, fn: fn})
}

// submit queues one task and wakes a runner parked on an empty queue.
func (e *Engine) submit(t task) {
	if t.g != nil {
		t.g.pending.Add(1)
	}
	e.enqueue(t)
	e.wake.Signal()
}

func (e *Engine) enqueue(t task) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queue = append(e.queue, t)
}

// next takes the oldest queued task, parking while the queue is empty
// but some task is still running (it may yet submit more). ok is false
// once the engine has drained: nothing queued, nothing running.
func (e *Engine) next() (t task, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.head == len(e.queue) {
		if e.running == 0 {
			return task{}, false
		}
		e.wake.Wait()
	}
	t = e.queue[e.head]
	e.queue[e.head] = task{} // drop the closure reference
	e.head++
	e.running++
	return t, true
}

// finish records one finished task's cost and failure, and reports
// whether the engine drained with it.
func (e *Engine) finish(t *task, cost time.Duration, err error) (drained bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.costs = append(e.costs, cost)
	if err != nil {
		e.fails = append(e.fails, taskFailure{label: t.label(), err: err})
	}
	e.running--
	return e.running == 0 && e.head == len(e.queue)
}

// run is the loop every runner executes — Wait's caller and each helper
// alike — until the engine drains. Group bookkeeping happens before
// finish, so a finalizer queued by the last member is visible to the
// drain check.
func (e *Engine) run() {
	tr := vclock.NewTracker()
	ctx := vclock.With(e.ctx, tr)
	for {
		t, ok := e.next()
		if !ok {
			return
		}
		before := tr.Elapsed()
		err := t.fn(ctx)
		cost := tr.Elapsed() - before
		if t.g != nil {
			if err != nil {
				t.g.fail()
			}
			t.g.done()
		}
		if e.finish(&t, cost, err) {
			e.wake.Broadcast()
		}
	}
}

func (e *Engine) help() {
	defer e.helpers.Done()
	e.run()
}

// Wait runs every submitted task (and group finalizer) to completion on
// the caller's goroutine plus workers-1 helpers, charges the LPT makespan
// of all task costs to the tracker carried by the engine's context, and
// returns the error of the failed task with the smallest label (nil if
// every task succeeded).
func (e *Engine) Wait() error {
	e.helpers.Add(e.workers - 1)
	for i := 1; i < e.workers; i++ {
		go e.help()
	}
	e.run()
	e.helpers.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	vclock.Charge(e.ctx, vclock.Makespan(e.costs, e.workers))
	if len(e.fails) == 0 {
		return nil
	}
	sort.Slice(e.fails, func(i, j int) bool { return e.fails[i].label < e.fails[j].label })
	return e.fails[0].err
}

// Group ties a set of tasks (and nested subgroups) to a finalizer that
// runs only after all of them succeeded — the mechanism behind "write the
// destination NameRing once every child object landed" and "delete the
// ring last". A failure anywhere in the group, or in any nested subgroup,
// marks the whole ancestor chain failed and skips their finalizers.
type Group struct {
	eng    *Engine
	parent *Group
	label  string
	fin    func(context.Context) error

	// pending counts the open handle returned by NewGroup plus every
	// unfinished member task and subgroup; the group drains at zero.
	pending atomic.Int64
	failed  atomic.Bool
}

// NewGroup creates a group under parent (nil for a top-level group). The
// finalizer fin (may be nil) is submitted as a task once the group drains
// without failure. The returned handle holds the group open: spawn the
// group's members, then call Close — typically via defer inside the
// first member.
func (e *Engine) NewGroup(parent *Group, label string, fin func(context.Context) error) *Group {
	g := &Group{eng: e, parent: parent, label: label, fin: fin}
	g.pending.Store(1)
	if parent != nil {
		parent.pending.Add(1)
	}
	return g
}

// Go submits a member task.
func (g *Group) Go(label string, fn func(context.Context) error) {
	g.eng.submit(task{g: g, prefix: label, fn: fn})
}

// GoChild submits a member task labelled relative to the group: the
// group's label, "/"+name when name is non-empty, then kind. The parts
// are joined only if the task fails, so a walk over many children does
// not build a string per child.
func (g *Group) GoChild(name, kind string, fn func(context.Context) error) {
	g.eng.submit(task{g: g, prefix: g.label, name: name, kind: kind, fn: fn})
}

// Close releases the open handle; after the last member finishes the
// group drains. No members may be added after Close unless submitted by
// a still-running member.
func (g *Group) Close() { g.done() }

// fail marks this group and every ancestor failed, so their finalizers
// are skipped.
func (g *Group) fail() {
	for p := g; p != nil; p = p.parent {
		p.failed.Store(true)
	}
}

// done consumes one pending reference. Draining to zero submits the
// finalizer (on success) as the group's last member, whose own done lands
// here again with fin cleared; the drain without a finalizer to run
// releases the parent's reference.
func (g *Group) done() {
	if g.pending.Add(-1) != 0 {
		return
	}
	if fin := g.fin; fin != nil && !g.failed.Load() {
		g.fin = nil
		g.GoChild("", "\x00fin", fin)
		return
	}
	if g.parent != nil {
		g.parent.done()
	}
}
