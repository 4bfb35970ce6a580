package snapshotfs

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

func newFS(t testing.TB, profile cluster.CostProfile, segTarget int) (*FS, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	return New(c, profile, "alice", nil, segTarget), c
}

func TestConformance(t *testing.T) {
	fstest.Run(t, probedFS(0))
}

func TestConformanceTinySegments(t *testing.T) {
	// A 1-byte segment target forces a seal on every write, covering the
	// sealed-segment read path.
	fstest.Run(t, probedFS(1))
}

func TestSegmentPacking(t *testing.T) {
	fs, c := newFS(t, cluster.ZeroProfile(), 10)
	ctx := context.Background()
	// Three 4-byte files: first two fill a 10-byte segment (sealed on the
	// write that crosses the target), third starts the next.
	for i := 0; i < 3; i++ {
		if err := fs.WriteFile(ctx, fmt.Sprintf("/f%d", i), []byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}
	// Sealed segments become objects; unsealed content stays client-side.
	if st := c.Stats(); st.Objects != 1 {
		t.Fatalf("objects = %d, want 1 sealed segment", st.Objects)
	}
	for i := 0; i < 3; i++ {
		data, err := fs.ReadFile(ctx, fmt.Sprintf("/f%d", i))
		if err != nil || string(data) != "abcd" {
			t.Fatalf("ReadFile(f%d) = %q, %v", i, data, err)
		}
	}
}

func TestAccessCostLinearInN(t *testing.T) {
	fs, _ := newFS(t, cluster.SwiftProfile(), 0)
	ctx := context.Background()
	if err := fs.WriteFile(ctx, "/probe", []byte("x")); err != nil {
		t.Fatal(err)
	}
	cost := func() time.Duration {
		tr := vclock.NewTracker()
		if _, err := fs.Stat(vclock.With(ctx, tr), "/probe"); err != nil {
			t.Fatal(err)
		}
		return tr.Elapsed()
	}
	small := cost()
	for i := 0; i < 1000; i++ {
		if err := fs.WriteFile(ctx, fmt.Sprintf("/bulk%04d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	large := cost()
	if large < 100*small {
		t.Fatalf("snapshot access cost not O(N): %v -> %v", small, large)
	}
}

func TestMkdirCostConstant(t *testing.T) {
	fs, _ := newFS(t, cluster.SwiftProfile(), 0)
	ctx := context.Background()
	cost := func(name string) time.Duration {
		tr := vclock.NewTracker()
		if err := fs.Mkdir(vclock.With(ctx, tr), name); err != nil {
			t.Fatal(err)
		}
		return tr.Elapsed()
	}
	first := cost("/d0")
	for i := 0; i < 500; i++ {
		if err := fs.WriteFile(ctx, fmt.Sprintf("/d0/f%03d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	later := cost("/d1")
	// MKDIR is an O(1) append regardless of filesystem size (Table 1).
	if later != first {
		t.Fatalf("MKDIR cost changed with N: %v -> %v", first, later)
	}
}

func TestCopySharesSegments(t *testing.T) {
	fs, c := newFS(t, cluster.ZeroProfile(), 4)
	ctx := context.Background()
	if err := fs.Mkdir(ctx, "/s"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ctx, "/s/f", []byte("datadata")); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if err := fs.Copy(ctx, "/s", "/t"); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	// Snapshot COPY duplicates metadata records only; no new segments.
	if after.Puts != before.Puts || after.Copies != before.Copies {
		t.Fatal("snapshot COPY touched the object store")
	}
	data, err := fs.ReadFile(ctx, "/t/f")
	if err != nil || string(data) != "datadata" {
		t.Fatalf("copied read = %q, %v", data, err)
	}
}

// TestDifferential replays random operation traces against the in-memory
// oracle model (see fstest.RunDifferential).
func TestDifferential(t *testing.T) {
	fstest.RunDifferential(t, probedFS(64))
}

// probedFS returns the conformance factory: a fresh filesystem with the
// given segment target over a zero-cost cluster whose every store call
// fstest.Probe checks.
func probedFS(segTarget int) fstest.Factory {
	return func(t *testing.T) fsapi.FileSystem {
		c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
		if err != nil {
			t.Fatal(err)
		}
		return New(fstest.Probe(t, c), cluster.ZeroProfile(), "alice", nil, segTarget)
	}
}
