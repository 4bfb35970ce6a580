package main

import (
	"context"
	"strings"
	"testing"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/h2fs"
)

func populatedCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	mw, err := h2fs.New(h2fs.Config{Store: c, Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := mw.CreateAccount(ctx, "demo"); err != nil {
		t.Fatal(err)
	}
	fs := mw.FS("demo")
	if err := fs.Mkdir(ctx, "/photos"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ctx, "/photos/cat.jpg", []byte("meow-bytes")); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClassifyObjectKinds(t *testing.T) {
	c := populatedCluster(t)
	ctx := context.Background()
	kinds := map[string]int{}
	for _, name := range c.Names() {
		data, info, err := c.Get(ctx, name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		label := classify(name, info, data)
		switch {
		case strings.HasPrefix(label, "account-root"):
			kinds["root"]++
		case label == "NameRing":
			kinds["ring"]++
		case label == "patch":
			kinds["patch"]++
		case strings.HasPrefix(label, "directory"):
			kinds["dir"]++
		case strings.HasPrefix(label, "file"):
			kinds["file"]++
		default:
			t.Fatalf("unclassified object %s: %s", name, label)
		}
	}
	// Root record, root ring + photos ring, one dir object, one file, and
	// the unflushed patch from the write.
	if kinds["root"] != 1 || kinds["ring"] != 2 || kinds["dir"] != 1 || kinds["file"] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
	if kinds["patch"] == 0 {
		t.Fatalf("no patch objects classified: %v", kinds)
	}
}

func TestAllNamesDeduplicatesReplicas(t *testing.T) {
	c := populatedCluster(t)
	names := c.Names()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate name %s", n)
		}
		seen[n] = true
	}
	// Every name must resolve through the cluster.
	for _, n := range names {
		if _, err := c.Head(context.Background(), n); err != nil {
			t.Fatalf("head %s: %v", n, err)
		}
	}
	// And the root record must be among them.
	if !seen[core.RootKey("demo")] {
		t.Fatalf("root record missing from %v", names)
	}
}

// TestFsckFindsAndReclaimsOrphans: a clean cluster checks out, a planted
// stray object is reported as an orphan, and the reclaim mode deletes
// exactly that object while the live tree survives.
func TestFsckFindsAndReclaimsOrphans(t *testing.T) {
	c := populatedCluster(t)
	ctx := context.Background()

	rep, err := fsck(c, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 0 || rep.Live != rep.Objects {
		t.Fatalf("clean cluster misreported: %+v", rep)
	}

	stray := "demo|N9999::lost"
	if err := c.Put(ctx, stray, []byte("junk"), nil); err != nil {
		t.Fatal(err)
	}
	rep, err = fsck(c, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 1 || rep.Orphans[0] != stray {
		t.Fatalf("orphans = %v, want [%s]", rep.Orphans, stray)
	}

	rep, err = fsck(c, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reclaimed != 1 {
		t.Fatalf("reclaimed = %d, want 1", rep.Reclaimed)
	}
	if _, err := c.Head(ctx, stray); err == nil {
		t.Fatal("stray object survived reclaim")
	}
	rep, err = fsck(c, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans after reclaim: %v", rep.Orphans)
	}
}

// TestClassifyGCQueueObjects: queue entries and the index get their own
// labels in the objects listing.
func TestClassifyGCQueueObjects(t *testing.T) {
	c := populatedCluster(t)
	ctx := context.Background()
	mw, err := h2fs.New(h2fs.Config{Store: c, Node: 1, EagerGC: false, GCQueue: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.FS("demo").Rmdir(ctx, "/photos"); err != nil {
		t.Fatal(err)
	}
	labels := map[string]int{}
	for _, name := range c.Names() {
		data, info, err := c.Get(ctx, name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		label := classify(name, info, data)
		switch {
		case label == "gc-queue index":
			labels["index"]++
		case strings.HasPrefix(label, "gc-queue entry"):
			labels["entry"]++
		}
	}
	if labels["index"] != 1 || labels["entry"] != 1 {
		t.Fatalf("gc labels = %v, want 1 index / 1 entry", labels)
	}
}
