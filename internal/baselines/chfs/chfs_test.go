package chfs

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

func newFS(t testing.TB, profile cluster.CostProfile) *FS {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	return New(c, profile, "alice", nil)
}

func TestConformance(t *testing.T) {
	fstest.Run(t, probedFS)
}

func TestFileAccessConstantCost(t *testing.T) {
	fs := newFS(t, cluster.SwiftProfile())
	ctx := context.Background()
	path := ""
	var costs []time.Duration
	for d := 1; d <= 8; d++ {
		path += fmt.Sprintf("/d%d", d)
		if err := fs.Mkdir(ctx, path); err != nil {
			t.Fatal(err)
		}
		tr := vclock.NewTracker()
		if _, err := fs.Stat(vclock.With(ctx, tr), path); err != nil {
			t.Fatal(err)
		}
		costs = append(costs, tr.Elapsed())
	}
	// Full-path hashing: one HEAD regardless of depth.
	for i := 1; i < len(costs); i++ {
		if costs[i] != costs[0] {
			t.Fatalf("Stat cost varies with depth: %v", costs)
		}
	}
}

func TestListCostScalesWithN(t *testing.T) {
	fs := newFS(t, cluster.SwiftProfile())
	ctx := context.Background()
	if err := fs.Mkdir(ctx, "/target"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(ctx, "/bulk"); err != nil {
		t.Fatal(err)
	}
	listCost := func() time.Duration {
		tr := vclock.NewTracker()
		if _, err := fs.List(vclock.With(ctx, tr), "/target", false); err != nil {
			t.Fatal(err)
		}
		return tr.Elapsed()
	}
	small := listCost()
	// Add 500 files elsewhere in the filesystem: plain CH still scans them.
	for i := 0; i < 500; i++ {
		if err := fs.WriteFile(ctx, fmt.Sprintf("/bulk/f%03d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	large := listCost()
	if large < 100*small/2 {
		t.Fatalf("LIST cost did not scale with N: %v -> %v", small, large)
	}
}

func TestMoveRewritesEveryFile(t *testing.T) {
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(c, cluster.ZeroProfile(), "alice", nil)
	ctx := context.Background()
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := fs.WriteFile(ctx, fmt.Sprintf("/d/f%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	if err := fs.Move(ctx, "/d", "/e"); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	// n files + the directory marker each need one copy and one delete.
	if got := after.Copies - before.Copies; got != n+1 {
		t.Fatalf("move performed %d copies, want %d", got, n+1)
	}
	if got := after.Deletes - before.Deletes; got != n+1 {
		t.Fatalf("move performed %d deletes, want %d", got, n+1)
	}
}

func TestRmdirDeletesEveryFile(t *testing.T) {
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(c, cluster.ZeroProfile(), "alice", nil)
	ctx := context.Background()
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := fs.WriteFile(ctx, fmt.Sprintf("/d/f%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	if err := fs.Rmdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Deletes - before.Deletes; got != 11 {
		t.Fatalf("rmdir performed %d deletes, want 11", got)
	}
	if got := c.Stats().Objects; got != 0 {
		t.Fatalf("%d objects left after rmdir", got)
	}
}

// TestDifferential replays random operation traces against the in-memory
// oracle model (see fstest.RunDifferential).
func TestDifferential(t *testing.T) {
	fstest.RunDifferential(t, probedFS)
}

// probedFS is the conformance factory: a fresh filesystem over a
// zero-cost cluster whose every store call fstest.Probe checks.
func probedFS(t *testing.T) fsapi.FileSystem {
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	return New(fstest.Probe(t, c), cluster.ZeroProfile(), "alice", nil)
}
