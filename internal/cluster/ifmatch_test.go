package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/h2cloud/h2cloud/internal/objstore"
)

// putIf is one conditional put through the cluster's MultiPut: the error
// and the ETag it reports.
func putIf(ctx context.Context, c *Cluster, name, data, ifMatch string) (string, error) {
	req := []objstore.PutReq{{Name: name, Data: []byte(data), IfMatch: ifMatch}}
	err := c.MultiPut(ctx, req)[0]
	return req[0].ETag, err
}

// TestPutIfMatchOneRacerWins: writers that all name the version they read
// race to replace it; the partition lock makes each check and its write
// one step, so exactly one wins, every other fails its precondition, and
// the store holds the winner's version.
func TestPutIfMatchOneRacerWins(t *testing.T) {
	c := newTestCluster(t, ZeroProfile())
	ctx := context.Background()
	tag, err := putIf(ctx, c, "obj", "v0", "")
	if err != nil {
		t.Fatal(err)
	}
	const racers = 8
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		errs := make([]error, racers)
		tags := make([]string, racers)
		for r := range errs {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				tags[r], errs[r] = putIf(ctx, c, "obj", fmt.Sprintf("round %d racer %d", round, r), tag)
			}(r)
		}
		wg.Wait()
		winner := -1
		for r, err := range errs {
			switch {
			case err == nil && winner >= 0:
				t.Fatalf("round %d: racers %d and %d both replaced %q", round, winner, r, tag)
			case err == nil:
				winner = r
			case !errors.Is(err, objstore.ErrPrecondition):
				t.Fatalf("round %d: racer %d: %v, want ErrPrecondition", round, r, err)
			}
		}
		if winner < 0 {
			t.Fatalf("round %d: no racer won", round)
		}
		data, info, err := c.Get(ctx, "obj")
		if err != nil || string(data) != fmt.Sprintf("round %d racer %d", round, winner) || info.ETag != tags[winner] {
			t.Fatalf("round %d: stored %q (%s, %v), want racer %d's version %s", round, data, info.ETag, err, winner, tags[winner])
		}
		tag = tags[winner]
	}
}

// TestPutIfMatchFailureWritesNothing: a put whose precondition fails
// leaves every replica holding the version it held, moves no gauge, and
// costs and counts exactly what a plain PUT of the same payload does.
func TestPutIfMatchFailureWritesNothing(t *testing.T) {
	profile := SwiftProfile()
	c := newTestCluster(t, profile)
	ctx := context.Background()
	mustPut(t, c, ctx, "obj", []byte("stored"), map[string]string{"k": "v"})
	before := make(map[int]objstore.ObjectInfo)
	for _, n := range c.replicaNodes("obj") {
		info, err := n.Head("obj")
		if err != nil {
			t.Fatal(err)
		}
		before[n.ID()] = info
	}
	stats := c.Stats()
	payload := make([]byte, 3000)
	var err error
	failed := charge(func(ctx context.Context) {
		err = c.MultiPut(ctx, []objstore.PutReq{{Name: "obj", Data: payload, IfMatch: objstore.ETag([]byte("stored"))}})[0]
	})
	if !errors.Is(err, objstore.ErrPrecondition) {
		t.Fatalf("put over the content-only ETag = %v, want ErrPrecondition: the stored ETag covers the metadata", err)
	}
	if got := replicaCopies(t, c, "obj"); len(got) != len(before) {
		t.Fatalf("%d replicas hold the object after the failed put, want %d", len(got), len(before))
	}
	for _, n := range c.replicaNodes("obj") {
		info, err := n.Head("obj")
		if err != nil || info.ETag != before[n.ID()].ETag || !info.LastModified.Equal(before[n.ID()].LastModified) {
			t.Fatalf("node %d holds %+v (%v) after the failed put, want %+v", n.ID(), info, err, before[n.ID()])
		}
	}
	after := c.Stats()
	if after.Puts != stats.Puts+1 || after.Objects != stats.Objects || after.Bytes != stats.Bytes {
		t.Fatalf("stats moved %+v -> %+v, want one more put and the gauges still", stats, after)
	}
	plain := charge(func(ctx context.Context) {
		if err := c.Put(ctx, "other", payload, nil); err != nil {
			t.Fatal(err)
		}
	})
	if failed != plain {
		t.Fatalf("the failed conditional put charged %v, a plain PUT %v", failed, plain)
	}
}

// TestPutIfAbsentCreatesOnly: Absent holds only where no version is
// stored, so a create-only put lands once and is refused after.
func TestPutIfAbsentCreatesOnly(t *testing.T) {
	c := newTestCluster(t, ZeroProfile())
	ctx := context.Background()
	tag, err := putIf(ctx, c, "obj", "first", objstore.Absent)
	if err != nil || tag != objstore.ETag([]byte("first")) {
		t.Fatalf("create-only put of a new name = %q, %v", tag, err)
	}
	if _, err := putIf(ctx, c, "obj", "second", objstore.Absent); !errors.Is(err, objstore.ErrPrecondition) {
		t.Fatalf("create-only put over an existing object = %v, want ErrPrecondition", err)
	}
	if data, _, err := c.Get(ctx, "obj"); err != nil || string(data) != "first" {
		t.Fatalf("stored %q, %v, want the first version", data, err)
	}
	if _, err := putIf(ctx, c, "missing", "x", tag); !errors.Is(err, objstore.ErrPrecondition) {
		t.Fatalf("put over an ETag where nothing is stored = %v, want ErrPrecondition", err)
	}
}

// TestPutIfMatchCannotTellWithHoldersDown: with every replica of the key
// down the sweep finds no version, and a Head would fail rather than
// miss; the conditional put reports that node error, which is transient,
// instead of a precondition failure.
func TestPutIfMatchCannotTellWithHoldersDown(t *testing.T) {
	c := newTestCluster(t, ZeroProfile())
	ctx := context.Background()
	tag, err := putIf(ctx, c, "obj", "v0", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.replicaNodes("obj") {
		c.SetNodeDown(n.ID(), true)
	}
	if _, err := putIf(ctx, c, "obj", "v1", tag); !objstore.Transient(err) {
		t.Fatalf("conditional put with every holder down = %v, want a transient node error", err)
	}
}
