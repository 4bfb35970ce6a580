package metrics

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Observe("LIST", 10*time.Microsecond, nil)
	r.Observe("LIST", 20*time.Microsecond, nil)
	r.Observe("LIST", 30*time.Microsecond, errors.New("x"))
	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	s := snaps[0]
	if s.Name != "LIST" || s.Count != 3 || s.Errors != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Mean != 20*time.Microsecond {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.P50 < 10*time.Microsecond || s.P50 > 64*time.Microsecond {
		t.Fatalf("P50 = %v", s.P50)
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z", "a", "m"} {
		r.Observe(n, time.Millisecond, nil)
	}
	snaps := r.Snapshot()
	if snaps[0].Name != "a" || snaps[1].Name != "m" || snaps[2].Name != "z" {
		t.Fatalf("order: %+v", snaps)
	}
}

func TestPercentileBuckets(t *testing.T) {
	r := NewRegistry()
	// 99 fast ops, 2 slow: the nearest-rank P99 (the 100th of 101) must
	// land in the slow bucket region, P50 in the fast one.
	for i := 0; i < 99; i++ {
		r.Observe("op", 5*time.Microsecond, nil)
	}
	r.Observe("op", 50*time.Millisecond, nil)
	r.Observe("op", 50*time.Millisecond, nil)
	s := r.Snapshot()[0]
	if s.P50 > 100*time.Microsecond {
		t.Fatalf("P50 = %v, want fast", s.P50)
	}
	if s.P99 < 10*time.Millisecond {
		t.Fatalf("P99 = %v, want slow", s.P99)
	}
}

func TestZeroValueRegistryUsable(t *testing.T) {
	var r Registry
	r.Observe("op", time.Millisecond, nil)
	if got := r.Snapshot()[0].Count; got != 1 {
		t.Fatalf("Count = %d", got)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe("op", time.Microsecond, nil)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot()[0].Count; got != 4000 {
		t.Fatalf("Count = %d, want 4000", got)
	}
}

func TestBucketBoundsMonotone(t *testing.T) {
	prev := time.Duration(0)
	for i := 0; i < nBuckets; i++ {
		u := bucketUpper(i)
		if u <= prev {
			t.Fatalf("bucketUpper(%d) = %v not increasing (prev %v)", i, u, prev)
		}
		prev = u
	}
	for _, d := range []time.Duration{0, time.Microsecond, time.Millisecond, time.Second, time.Hour} {
		b := bucketFor(d)
		if b < 0 || b >= nBuckets {
			t.Fatalf("bucketFor(%v) = %d", d, b)
		}
		// The last bucket saturates; every other bucket must contain d.
		if b < nBuckets-1 && d > bucketUpper(b) {
			t.Fatalf("d=%v exceeds its bucket upper %v", d, bucketUpper(b))
		}
	}
}
