package bench

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/metrics"
)

// A row whose per-call cost grows with every call never settles on a b.N
// that fits testing.Benchmark's second; the limit fails it by name
// instead of letting it hang the gate.
func TestHotPathRowPastLimitFails(t *testing.T) {
	var calls, stop atomic.Int64
	spin := 0
	grows := hotpathCase{path: "test/grows", bench: func(b *testing.B) {
		for i := 0; i < b.N && stop.Load() == 0; i++ {
			n := calls.Add(1)
			for j := int64(0); j < n*n && stop.Load() == 0; j++ {
				spin++
			}
		}
	}}
	defer stop.Store(1)
	const limit = 300 * time.Millisecond
	start := time.Now()
	_, err := benchWithin(grows, limit)
	if err == nil || !strings.Contains(err.Error(), "test/grows") {
		t.Fatalf("benchWithin = %v, want an error naming the row", err)
	}
	if took := time.Since(start); took > limit+time.Second {
		t.Fatalf("benchWithin returned after %v, limit %v", took, limit)
	}
}

// h2fs/reload-evicted measures a Stat whose parent ring was evicted: under
// its two-descriptor cache every Stat of the walk must release one ring
// and GET one back, whatever seat the cache gives a woken stub.
func TestReloadEvictedEvictsEveryStat(t *testing.T) {
	reg := metrics.NewRegistry()
	paths, fs, err := coldTree(reloadDirs, reg)
	if err != nil {
		t.Fatal(err)
	}
	evicted, reqs := reg.Counter("descCache.evicted"), reg.Requests()
	for i := 0; i < 2*len(paths); i++ {
		if _, err := fs.Stat(bg(), paths[i%len(paths)]); err != nil {
			t.Fatal(err)
		}
	}
	stats := int64(2 * len(paths))
	if got := reg.Counter("descCache.evicted") - evicted; got != stats {
		t.Errorf("%d Stats evicted %d descriptors, want one each", stats, got)
	}
	if got := reg.Requests().Sub(reqs)[metrics.PrimGet][core.KeyRing].N; got != stats {
		t.Errorf("%d Stats sent %d ring GETs, want one each", stats, got)
	}
}
