package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

func newTestCluster(t *testing.T, profile CostProfile) *Cluster {
	t.Helper()
	c, err := New(Config{Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// charge runs fn under a fresh tracker and returns the virtual time.
func charge(fn func(ctx context.Context)) time.Duration {
	tr := vclock.NewTracker()
	fn(vclock.With(context.Background(), tr))
	return tr.Elapsed()
}

func TestMultiPutChargesOneWindow(t *testing.T) {
	profile := SwiftProfile()
	c := newTestCluster(t, profile)
	const n = 32
	reqs := make([]objstore.PutReq, n)
	for i := range reqs {
		reqs[i] = objstore.PutReq{Name: fmt.Sprintf("obj-%03d", i), Data: []byte("x")}
	}
	got := charge(func(ctx context.Context) {
		for i, err := range c.MultiPut(ctx, reqs) {
			if err != nil {
				t.Fatalf("slot %d: %v", i, err)
			}
		}
	})
	// 32 equal puts over a 16-wide window: two rounds, not a 32-put sum.
	per := profile.Put + transferCost(profile.PerKB, 1)
	if want := 2 * per; got != want {
		t.Fatalf("MultiPut charged %v, want the overlapped window %v", got, want)
	}

	// The same batch issued singularly costs the full sum.
	single := charge(func(ctx context.Context) {
		for _, r := range reqs {
			if err := c.Put(ctx, r.Name, r.Data, r.Meta); err != nil {
				t.Fatal(err)
			}
		}
	})
	if want := n * per; single != want {
		t.Fatalf("singular puts charged %v, want %v", single, want)
	}
}

// TestMultiPutReportsSealedETags: a slot that lands reports the ETag of
// its content and metadata, which a following Head returns; a slot that
// misses quorum clears whatever its request carried.
func TestMultiPutReportsSealedETags(t *testing.T) {
	c := newTestCluster(t, SwiftProfile())
	ctx := context.Background()
	reqs := []objstore.PutReq{
		{Name: "a", Data: []byte("alpha")},
		{Name: "b", Data: []byte("beta"), Meta: map[string]string{"k": "v"}},
		{Name: "c", Data: nil},
	}
	for i, err := range c.MultiPut(ctx, reqs) {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		info, err := c.Head(ctx, reqs[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		if want := objstore.SealedETag(reqs[i].Data, reqs[i].Meta); reqs[i].ETag != want || info.ETag != want {
			t.Fatalf("slot %d reported %q, Head says %q, want %q", i, reqs[i].ETag, info.ETag, want)
		}
	}
	// Every node but one down: nowhere to reach quorum. The requests still
	// carry the first batch's tags, which must not survive the failure.
	for _, id := range c.Ring().DeviceIDs()[1:] {
		c.SetNodeDown(id, true)
	}
	reqs[0].Data = []byte("alpha, again")
	for i, err := range c.MultiPut(ctx, reqs[:1]) {
		if !errors.Is(err, objstore.ErrNoQuorum) {
			t.Fatalf("slot %d err = %v, want ErrNoQuorum", i, err)
		}
		if reqs[i].ETag != "" {
			t.Fatalf("failed slot %d reported ETag %q, want none", i, reqs[i].ETag)
		}
	}
}

func TestBatchSequentialFanoutEqualsSingularSum(t *testing.T) {
	profile := SwiftProfile()
	profile.Fanout = 1
	c := newTestCluster(t, profile)
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("obj-%02d", i)
		if err := c.Put(context.Background(), names[i], []byte("y"), nil); err != nil {
			t.Fatal(err)
		}
	}
	batch := charge(func(ctx context.Context) {
		for i, r := range c.MultiHead(ctx, names) {
			if r.Err != nil {
				t.Fatalf("slot %d: %v", i, r.Err)
			}
		}
	})
	sum := charge(func(ctx context.Context) {
		for _, name := range names {
			if _, err := c.Head(ctx, name); err != nil {
				t.Fatal(err)
			}
		}
	})
	if batch != sum {
		t.Fatalf("Fanout=1 batch charged %v, want the singular sum %v", batch, sum)
	}
}

func TestBatchResultsMatchSingular(t *testing.T) {
	c := newTestCluster(t, SwiftProfile())
	ctx := context.Background()
	if err := c.Put(ctx, "present", []byte("data"), map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	got := c.MultiGet(ctx, []string{"present", "absent"})
	if got[0].Err != nil || string(got[0].Data) != "data" || got[0].Info.Meta["k"] != "v" {
		t.Fatalf("slot 0 = %+v, want the stored object", got[0])
	}
	if !errors.Is(got[1].Err, objstore.ErrNotFound) {
		t.Fatalf("slot 1 err = %v, want ErrNotFound", got[1].Err)
	}
	dels := c.MultiDelete(ctx, []string{"present", "absent"})
	if dels[0] != nil {
		t.Fatalf("delete slot 0 = %v", dels[0])
	}
	if !errors.Is(dels[1], objstore.ErrNotFound) {
		t.Fatalf("delete slot 1 = %v, want ErrNotFound", dels[1])
	}
}

func TestRepairProbesWithHeadOnly(t *testing.T) {
	profile := SwiftProfile()
	c := newTestCluster(t, profile)
	ctx := context.Background()
	const n = 20
	for i := 0; i < n; i++ {
		if err := c.Put(ctx, fmt.Sprintf("obj-%02d", i), []byte("abc"), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Healthy cluster: a pass must move no content — no replica Get, no
	// Put, and zero repairs.
	got := charge(func(ctx context.Context) {
		if r := c.Repair(ctx, 8); r != 0 {
			t.Fatalf("healthy repair pass repaired %d copies", r)
		}
	})
	// Every charge in a healthy pass is a Head probe; Get would add 10ms
	// per object and Put 25ms, so a content fetch is easily visible.
	if got == 0 {
		t.Fatal("healthy repair pass charged nothing; Head probes should be billed")
	}
	if got%profile.Head != 0 {
		t.Fatalf("healthy repair charged %v, not a multiple of the Head cost %v (content was fetched)", got, profile.Head)
	}

	// Knock a node out, overwrite an object so the downed node goes stale,
	// bring it back: repair must fetch the stale object's bytes once and
	// push them to the stale replica only.
	c.SetNodeDown(0, true)
	if err := c.Put(ctx, "obj-00", []byte("new content"), nil); err != nil {
		t.Fatal(err)
	}
	c.SetNodeDown(0, false)
	repaired := 0
	cost := charge(func(ctx context.Context) { repaired = c.Repair(ctx, 8) })
	if repaired == 0 {
		t.Fatal("stale replica was not repaired")
	}
	if cost <= 0 {
		t.Fatal("repair pass charged nothing")
	}
	// Verify the heal: every up replica of obj-00 should now serve the new
	// bytes through the normal read path.
	data, _, err := c.Get(ctx, "obj-00")
	if err != nil || string(data) != "new content" {
		t.Fatalf("after repair Get = (%q, %v)", data, err)
	}
	if r := c.Repair(ctx, 8); r != 0 {
		t.Fatalf("second pass repaired %d copies, want 0 (converged)", r)
	}
}

func TestRepairChargesWindowUnderSubtreeFanout(t *testing.T) {
	ctx := context.Background()
	build := func() *Cluster {
		c := newTestCluster(t, SwiftProfile())
		for i := 0; i < 64; i++ {
			if err := c.Put(ctx, fmt.Sprintf("obj-%02d", i), []byte("z"), nil); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	seq := charge(func(ctx context.Context) { build().Repair(ctx, 1) })
	pipe := charge(func(ctx context.Context) { build().Repair(ctx, 16) })
	if seq == 0 || pipe == 0 {
		t.Fatalf("repair charges: seq=%v pipe=%v", seq, pipe)
	}
	if pipe*2 > seq {
		t.Fatalf("pipelined repair (%v) is not at least 2x cheaper than sequential (%v)", pipe, seq)
	}
}
