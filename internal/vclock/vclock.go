// Package vclock provides a virtual clock for simulated service time.
//
// The H2Cloud evaluation (paper §5.2) measures "operation time": how long
// the storage system needs to process a filesystem operation, excluding
// wide-area RTT. In this reproduction the object storage cloud is an
// in-process simulator, so instead of measuring wall time of in-memory map
// lookups we charge each storage primitive a calibrated service time on a
// virtual clock carried through context.Context. Parallel fan-out (an
// H2Middleware issuing many outbound requests at once) is modeled as a
// bounded-worker schedule whose makespan is charged to the parent request.
//
// When no Tracker is attached to the context every charge is a no-op, so
// the same code paths can be benchmarked for real wall-clock cost.
package vclock

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Tracker accumulates the simulated service time of one request.
// It is safe for concurrent use.
type Tracker struct {
	nanos atomic.Int64
}

// NewTracker returns a Tracker with zero elapsed virtual time.
func NewTracker() *Tracker { return &Tracker{} }

// Charge adds d to the tracker's elapsed virtual time.
// Negative durations are ignored.
func (t *Tracker) Charge(d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.nanos.Add(int64(d))
}

// Elapsed reports the total virtual time charged so far.
func (t *Tracker) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.nanos.Load())
}

// Reset sets the elapsed virtual time back to zero.
func (t *Tracker) Reset() {
	if t != nil {
		t.nanos.Store(0)
	}
}

type ctxKey struct{}

// With returns a context carrying t.
func With(ctx context.Context, t *Tracker) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// From returns the Tracker carried by ctx, or nil if none is attached.
func From(ctx context.Context) *Tracker {
	t, _ := ctx.Value(ctxKey{}).(*Tracker)
	return t
}

// Charge adds d to the tracker attached to ctx, if any.
func Charge(ctx context.Context, d time.Duration) {
	From(ctx).Charge(d)
}

// scope is the context Observe runs its function under: the parent's
// values, deadline and cancellation, except that the tracker key answers
// with the scope's own Tracker.
type scope struct {
	context.Context
	t Tracker
}

// Value implements context.Context.
func (s *scope) Value(key any) any {
	if key == (ctxKey{}) {
		return &s.t
	}
	return s.Context.Value(key)
}

// Reset detaches the scope from its parent and zeroes its tracker.
func (s *scope) Reset() {
	s.Context = nil
	s.t.Reset()
}

// scopes recycles the scopes Observe interposes, so an observation
// allocates nothing.
var scopes = sync.Pool{New: func() any { return new(scope) }}

// Observe runs fn on a context whose tracker is fresh and returns the
// virtual time fn charged to it, with fn's error. Nothing is charged to
// ctx's tracker: the caller decides what the parent pays. fn must not
// retain its context past its return, because the scope is recycled.
func Observe(ctx context.Context, fn func(context.Context) error) (time.Duration, error) {
	s := scopes.Get().(*scope)
	s.Context = ctx
	err := fn(s)
	d := s.t.Elapsed()
	s.Reset()
	scopes.Put(s)
	return d, err
}

// Makespan computes the completion time of scheduling the given task
// durations on `workers` parallel workers using longest-processing-time
// (LPT) list scheduling. With workers <= 1 it degenerates to the sum.
//
// The worker loads are a binary min-heap: each task, longest first, goes
// onto the root and sinks, so a window of n tasks costs O(n log w). Which
// of several least-loaded workers takes a task does not matter: every
// choice leaves the same multiset of loads, so the makespan is that of
// any LPT schedule.
func Makespan(durs []time.Duration, workers int) time.Duration {
	if workers <= 1 || len(durs) <= 1 {
		var sum time.Duration
		for _, d := range durs {
			sum += d
		}
		return sum
	}
	sorted := slices.Clone(durs)
	slices.Sort(sorted)
	loads := make([]time.Duration, min(workers, len(durs)))
	for i := len(sorted) - 1; i >= 0; i-- {
		loads[0] += sorted[i]
		siftDown(loads)
	}
	return slices.Max(loads)
}

// siftDown restores the min-heap order of h after its root grew.
func siftDown(h []time.Duration) {
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r] < h[m] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
