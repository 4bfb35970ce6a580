package vclock

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestTrackerChargeAccumulates(t *testing.T) {
	tr := NewTracker()
	tr.Charge(10 * time.Millisecond)
	tr.Charge(5 * time.Millisecond)
	if got, want := tr.Elapsed(), 15*time.Millisecond; got != want {
		t.Fatalf("Elapsed = %v, want %v", got, want)
	}
}

func TestTrackerIgnoresNonPositive(t *testing.T) {
	tr := NewTracker()
	tr.Charge(0)
	tr.Charge(-time.Second)
	if got := tr.Elapsed(); got != 0 {
		t.Fatalf("Elapsed = %v, want 0", got)
	}
}

func TestNilTrackerSafe(t *testing.T) {
	var tr *Tracker
	tr.Charge(time.Second) // must not panic
	if got := tr.Elapsed(); got != 0 {
		t.Fatalf("nil Elapsed = %v, want 0", got)
	}
	tr.Reset()
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker()
	tr.Charge(time.Second)
	tr.Reset()
	if got := tr.Elapsed(); got != 0 {
		t.Fatalf("Elapsed after Reset = %v, want 0", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTracker()
	ctx := With(context.Background(), tr)
	if From(ctx) != tr {
		t.Fatal("From did not return the attached tracker")
	}
	Charge(ctx, 7*time.Millisecond)
	if got, want := tr.Elapsed(), 7*time.Millisecond; got != want {
		t.Fatalf("Elapsed = %v, want %v", got, want)
	}
}

func TestChargeWithoutTrackerIsNoop(t *testing.T) {
	Charge(context.Background(), time.Second) // must not panic
	if From(context.Background()) != nil {
		t.Fatal("From(empty ctx) != nil")
	}
}

func TestTrackerConcurrentCharges(t *testing.T) {
	tr := NewTracker()
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Charge(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got, want := tr.Elapsed(), goroutines*per*time.Microsecond; got != want {
		t.Fatalf("Elapsed = %v, want %v", got, want)
	}
}

func TestMakespanEmpty(t *testing.T) {
	if got := Makespan(nil, 4); got != 0 {
		t.Fatalf("Makespan(nil) = %v, want 0", got)
	}
}

func TestMakespanSingleWorkerIsSum(t *testing.T) {
	durs := []time.Duration{3, 1, 2}
	if got := Makespan(durs, 1); got != 6 {
		t.Fatalf("Makespan = %v, want 6", got)
	}
	if got := Makespan(durs, 0); got != 6 {
		t.Fatalf("Makespan(workers=0) = %v, want 6", got)
	}
}

func TestMakespanPerfectSplit(t *testing.T) {
	durs := []time.Duration{4, 4, 4, 4}
	if got := Makespan(durs, 4); got != 4 {
		t.Fatalf("Makespan = %v, want 4", got)
	}
	if got := Makespan(durs, 2); got != 8 {
		t.Fatalf("Makespan(2 workers) = %v, want 8", got)
	}
}

func TestMakespanLPT(t *testing.T) {
	// LPT on {5,4,3,3,3} with 2 workers: 5+3 / 4+3+3 -> makespan 10.
	durs := []time.Duration{3, 5, 3, 4, 3}
	if got := Makespan(durs, 2); got != 10 {
		t.Fatalf("Makespan = %v, want 10", got)
	}
}

func TestMakespanMoreWorkersThanTasks(t *testing.T) {
	durs := []time.Duration{7, 2}
	if got := Makespan(durs, 100); got != 7 {
		t.Fatalf("Makespan = %v, want 7 (the longest task)", got)
	}
}

// Property: makespan is bounded below by max(durs) and mean load, and
// bounded above by the sequential sum; more workers never hurts vs 1.
func TestMakespanBoundsProperty(t *testing.T) {
	f := func(raw []uint16, w uint8) bool {
		if len(raw) == 0 {
			return true
		}
		workers := int(w%8) + 1
		durs := make([]time.Duration, len(raw))
		var sum, max time.Duration
		for i, r := range raw {
			durs[i] = time.Duration(r)
			sum += durs[i]
			if durs[i] > max {
				max = durs[i]
			}
		}
		got := Makespan(durs, workers)
		lower := sum / time.Duration(workers)
		if max > lower {
			lower = max
		}
		return got >= lower && got <= sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// referenceLPT is the sort-and-scan LPT schedule Makespan replaced: sort
// longest first, give each task to the lowest-numbered least-loaded
// worker by a linear scan.
func referenceLPT(durs []time.Duration, workers int) time.Duration {
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

// The heap breaks ties between least-loaded workers differently from the
// scan, and durations drawn from 0–19 tie constantly; the makespan must
// not move on any of them, nor may the input be reordered.
func TestMakespanMatchesReferenceLPT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 200_000; c++ {
		durs := make([]time.Duration, rng.Intn(61))
		for i := range durs {
			durs[i] = time.Duration(rng.Intn(20))
		}
		workers := rng.Intn(70) - 2
		in := slices.Clone(durs)
		want := referenceLPT(durs, workers)
		if got := Makespan(durs, workers); got != want {
			t.Fatalf("Makespan(%v, %d) = %v, want %v", durs, workers, got, want)
		}
		if !slices.Equal(durs, in) {
			t.Fatalf("Makespan reordered its input: %v, was %v", durs, in)
		}
	}
}

// A window allocates its sorted copy and its loads, nothing per task.
func TestMakespanAllocations(t *testing.T) {
	durs := make([]time.Duration, 1000)
	for i := range durs {
		durs[i] = time.Duration(i % 37)
	}
	if n := testing.AllocsPerRun(20, func() { Makespan(durs, 48) }); n > 2 {
		t.Fatalf("Makespan allocates %v times per call, want at most 2", n)
	}
}

func TestObserveReturnsWhatFnCharged(t *testing.T) {
	parent := NewTracker()
	ctx := With(context.Background(), parent)
	boom := errors.New("boom")
	d, err := Observe(ctx, func(ctx context.Context) error {
		Charge(ctx, 3*time.Millisecond)
		From(ctx).Charge(4 * time.Millisecond)
		return boom
	})
	if d != 7*time.Millisecond || err != boom {
		t.Fatalf("Observe = %v, %v, want 7ms and fn's error", d, err)
	}
	if got := parent.Elapsed(); got != 0 {
		t.Fatalf("parent charged %v by Observe, want 0", got)
	}
	// The recycled scope starts from zero.
	if d, _ := Observe(ctx, func(context.Context) error { return nil }); d != 0 {
		t.Fatalf("Observe of a free fn = %v, want 0", d)
	}
}

func TestObserveNested(t *testing.T) {
	parent := NewTracker()
	ctx := With(context.Background(), parent)
	var inner time.Duration
	outer, err := Observe(ctx, func(ctx context.Context) error {
		Charge(ctx, time.Millisecond)
		d, err := Observe(ctx, func(ctx context.Context) error {
			Charge(ctx, 5*time.Millisecond)
			return nil
		})
		inner = d
		Charge(ctx, d)
		return err
	})
	if err != nil || inner != 5*time.Millisecond || outer != 6*time.Millisecond {
		t.Fatalf("nested Observe: inner %v, outer %v, %v; want 5ms and 6ms", inner, outer, err)
	}
	if got := parent.Elapsed(); got != 0 {
		t.Fatalf("parent charged %v, want 0", got)
	}
}

func TestObserveForwardsContext(t *testing.T) {
	type otherKey struct{}
	deadline := time.Unix(1_700_000_000, 0)
	base, cancel := context.WithDeadline(context.WithValue(context.Background(), otherKey{}, "v"), deadline)
	ctx := With(base, NewTracker())
	d, err := Observe(ctx, func(ctx context.Context) error {
		if got := ctx.Value(otherKey{}); got != "v" {
			t.Errorf("Value(otherKey) = %v, want v", got)
		}
		if got, ok := ctx.Deadline(); !ok || !got.Equal(deadline) {
			t.Errorf("Deadline = %v, %v, want %v", got, ok, deadline)
		}
		cancel()
		<-ctx.Done()
		if ctx.Err() == nil {
			t.Error("Err = nil after the parent was cancelled")
		}
		// Detaching the tracker inside the scope stops billing it.
		Charge(With(ctx, nil), time.Second)
		return ctx.Err()
	})
	if d != 0 || !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Observe = %v, %v, want 0 and the parent's error", d, err)
	}
}

func TestObserveConcurrent(t *testing.T) {
	parent := NewTracker()
	ctx := With(context.Background(), parent)
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d, _ := Observe(ctx, func(ctx context.Context) error {
					Charge(ctx, time.Duration(g)*time.Microsecond)
					return nil
				})
				if d != time.Duration(g)*time.Microsecond {
					t.Errorf("goroutine %d observed %v", g, d)
					return
				}
				Charge(ctx, d)
			}
		}()
	}
	wg.Wait()
	if got, want := parent.Elapsed(), 200*36*time.Microsecond; got != want {
		t.Fatalf("parent = %v, want %v", got, want)
	}
}

func TestObserveAllocations(t *testing.T) {
	ctx := With(context.Background(), NewTracker())
	fn := func(ctx context.Context) error { Charge(ctx, time.Millisecond); return nil }
	if n := testing.AllocsPerRun(100, func() { _, _ = Observe(ctx, fn) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", n)
	}
}

// The scope goes back to the pool detached from its parent: one GC moves
// the pool's contents to its victim cache, where a parent the scope still
// held would live on, so a parent nothing else holds must be freed by
// that GC.
func TestObservePinsNoParent(t *testing.T) {
	freed := make(chan struct{})
	observeWatchedParent(freed)
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("a parent context survived a GC after Observe returned: the pooled scope still holds it")
	}
}

// watchedCtx is a parent context in an allocation of its own.
type watchedCtx struct{ context.Context }

// observeWatchedParent observes a no-op under a parent that closes freed
// when collected.
//
//go:noinline
func observeWatchedParent(freed chan struct{}) {
	parent := &watchedCtx{Context: context.Background()}
	runtime.SetFinalizer(parent, func(*watchedCtx) { close(freed) })
	if _, err := Observe(parent, func(context.Context) error { return nil }); err != nil {
		panic(err)
	}
}
