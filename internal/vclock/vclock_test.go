package vclock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
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

func TestFanoutChargesMakespan(t *testing.T) {
	tr := NewTracker()
	ctx := With(context.Background(), tr)
	tasks := make([]func(context.Context) error, 4)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) error {
			Charge(ctx, 10*time.Millisecond)
			return nil
		}
	}
	if err := Fanout(ctx, 2, tasks); err != nil {
		t.Fatal(err)
	}
	// 4 tasks of 10ms on 2 workers => 20ms.
	if got, want := tr.Elapsed(), 20*time.Millisecond; got != want {
		t.Fatalf("Elapsed = %v, want %v", got, want)
	}
}

func TestFanoutPropagatesError(t *testing.T) {
	wantErr := errors.New("boom")
	tasks := []func(context.Context) error{
		func(context.Context) error { return nil },
		func(context.Context) error { return wantErr },
		func(context.Context) error { return nil },
	}
	if err := Fanout(context.Background(), 3, tasks); !errors.Is(err, wantErr) {
		t.Fatalf("Fanout error = %v, want %v", err, wantErr)
	}
}

func TestFanoutEmptyTasks(t *testing.T) {
	if err := Fanout(context.Background(), 4, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFanoutWithoutParentTracker(t *testing.T) {
	ran := false
	err := Fanout(context.Background(), 1, []func(context.Context) error{
		func(ctx context.Context) error {
			Charge(ctx, time.Millisecond) // child tracker exists even without parent
			ran = true
			return nil
		},
	})
	if err != nil || !ran {
		t.Fatalf("err=%v ran=%v", err, ran)
	}
}

func TestFanoutBoundsConcurrency(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	var mu sync.Mutex
	cur, peak := 0, 0
	enter := func() {
		mu.Lock()
		defer mu.Unlock()
		cur++
		if cur > peak {
			peak = cur
		}
	}
	exit := func() {
		mu.Lock()
		defer mu.Unlock()
		cur--
	}
	tasks := make([]func(context.Context) error, 32)
	for i := range tasks {
		tasks[i] = func(context.Context) error {
			enter()
			time.Sleep(time.Millisecond)
			exit()
			return nil
		}
	}
	if err := Fanout(context.Background(), 4, tasks); err != nil {
		t.Fatal(err)
	}
	if peak > 4 {
		t.Fatalf("peak concurrency %d > 4", peak)
	}
}
