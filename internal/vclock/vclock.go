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
	"sort"
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

// Makespan computes the completion time of scheduling the given task
// durations on `workers` parallel workers using longest-processing-time
// (LPT) list scheduling. With workers <= 1 it degenerates to the sum.
func Makespan(durs []time.Duration, workers int) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	if workers <= 1 || len(durs) == 1 {
		var sum time.Duration
		for _, d := range durs {
			sum += d
		}
		return sum
	}
	if workers > len(durs) {
		workers = len(durs)
	}
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	loads := make([]time.Duration, workers)
	for _, d := range sorted {
		// Assign to the least-loaded worker.
		min := 0
		for w := 1; w < workers; w++ {
			if loads[w] < loads[min] {
				min = w
			}
		}
		loads[min] += d
	}
	var max time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}
