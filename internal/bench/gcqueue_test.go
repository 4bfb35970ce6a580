package bench

import (
	"testing"
)

// TestGCQueueDeterministic: two same-seed runs of the reclamation sweep
// must produce byte-identical artifacts, and the sweep must hold its own
// claims (checkGCQueue: O(1) rmdir, a crashed and replayed drain, zero
// orphans, a lag that grows with the subtree).
func TestGCQueueDeterministic(t *testing.T) {
	r1, err := GCQueueReclamation(true)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := GCQueueReclamation(true)
	if err != nil {
		t.Fatal(err)
	}
	if j1, j2 := FormatJSON(r1), FormatJSON(r2); j1 != j2 {
		t.Fatalf("same-seed runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
}
