package bench

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
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
