package bench

import (
	"errors"
	"testing"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// TestDirShardStoreMultiPutReportsETags: the counting wrapper forwards
// the cluster's batch, so each slot reports the ETag the cluster sealed —
// what a following Head returns — and a slot that misses quorum reports
// none.
func TestDirShardStoreMultiPutReportsETags(t *testing.T) {
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	s := newDirShardStore(c)
	reqs := []objstore.PutReq{
		{Name: "a", Data: []byte("alpha")},
		{Name: "b", Data: []byte("beta"), ETag: "stale"},
	}
	for i, err := range s.MultiPut(bg(), reqs) {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		info, err := s.Head(bg(), reqs[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		if want := objstore.ETag(reqs[i].Data); reqs[i].ETag != want || info.ETag != want {
			t.Fatalf("slot %d reported %q, Head says %q, want %q", i, reqs[i].ETag, info.ETag, want)
		}
	}
	for _, id := range c.Ring().DeviceIDs()[1:] {
		c.SetNodeDown(id, true)
	}
	if err := s.MultiPut(bg(), reqs[:1])[0]; !errors.Is(err, objstore.ErrNoQuorum) || reqs[0].ETag != "" {
		t.Fatalf("failed slot = (%v, %q), want ErrNoQuorum and no ETag", err, reqs[0].ETag)
	}
}
