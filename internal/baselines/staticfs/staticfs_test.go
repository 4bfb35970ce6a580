package staticfs

import (
	"context"
	"fmt"
	"testing"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
)

func newFS(t testing.TB, servers int) (*FS, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	return New(c, cluster.ZeroProfile(), "alice", nil, servers), c
}

func TestConformance(t *testing.T) {
	fstest.Run(t, probedFS(4))
}

func TestConformanceSingleServer(t *testing.T) {
	fstest.Run(t, probedFS(1))
}

// findCrossPair locates two top-level names mapping to different
// partitions and one pair mapping to the same partition.
func findPairs(fs *FS) (crossA, crossB, sameA, sameB string) {
	names := make([]string, 40)
	for i := range names {
		names[i] = fmt.Sprintf("top%02d", i)
	}
	part := func(n string) int {
		counts := fs.Partitions([]string{n})
		for i, c := range counts {
			if c > 0 {
				return i
			}
		}
		return -1
	}
	p0 := part(names[0])
	for _, n := range names[1:] {
		if crossB == "" && part(n) != p0 {
			crossB = n
		}
		if sameB == "" && part(n) == p0 {
			sameB = n
		}
	}
	return names[0], crossB, names[0], sameB
}

func TestCrossPartitionMoveDeepCopies(t *testing.T) {
	fs, c := newFS(t, 4)
	ctx := context.Background()
	srcTop, dstTop, _, _ := findPairs(fs)
	if dstTop == "" {
		t.Skip("hash assigned all probe names to one partition")
	}
	mustNoErr(t, fs.Mkdir(ctx, "/"+srcTop))
	mustNoErr(t, fs.Mkdir(ctx, "/"+dstTop))
	mustNoErr(t, fs.Mkdir(ctx, "/"+srcTop+"/sub"))
	const n = 8
	for i := 0; i < n; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/%s/sub/f%d", srcTop, i), []byte("payload")))
	}
	before := c.Stats()
	mustNoErr(t, fs.Move(ctx, "/"+srcTop+"/sub", "/"+dstTop+"/sub"))
	after := c.Stats()
	// Cross-partition move re-uploads every file: n gets and n puts.
	if gets := after.Gets - before.Gets; gets < n {
		t.Fatalf("cross-partition move read %d objects, want >= %d", gets, n)
	}
	if puts := after.Puts - before.Puts; puts < n {
		t.Fatalf("cross-partition move wrote %d objects, want >= %d", puts, n)
	}
	data, err := fs.ReadFile(ctx, "/"+dstTop+"/sub/f0")
	mustNoErr(t, err)
	if string(data) != "payload" {
		t.Fatalf("moved content = %q", data)
	}
	if _, err := fs.Stat(ctx, "/"+srcTop+"/sub"); err == nil {
		t.Fatal("source survived cross-partition move")
	}
}

func TestSamePartitionMoveIsPointerUpdate(t *testing.T) {
	fs, c := newFS(t, 4)
	ctx := context.Background()
	_, _, srcTop, sameTop := findPairs(fs)
	if sameTop == "" {
		t.Skip("no same-partition pair found")
	}
	mustNoErr(t, fs.Mkdir(ctx, "/"+srcTop))
	mustNoErr(t, fs.Mkdir(ctx, "/"+sameTop))
	mustNoErr(t, fs.Mkdir(ctx, "/"+srcTop+"/sub"))
	for i := 0; i < 8; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/%s/sub/f%d", srcTop, i), []byte("x")))
	}
	before := c.Stats()
	mustNoErr(t, fs.Move(ctx, "/"+srcTop+"/sub", "/"+sameTop+"/sub"))
	after := c.Stats()
	if after.Gets != before.Gets || after.Puts != before.Puts {
		t.Fatal("same-partition move touched the object store")
	}
}

func TestRootListMergesPartitions(t *testing.T) {
	fs, _ := newFS(t, 4)
	ctx := context.Background()
	names := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for _, n := range names {
		mustNoErr(t, fs.Mkdir(ctx, "/"+n))
	}
	entries, err := fs.List(ctx, "/", false)
	mustNoErr(t, err)
	if len(entries) != len(names) {
		t.Fatalf("root List = %d entries, want %d", len(entries), len(names))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name >= entries[i].Name {
			t.Fatal("merged root listing not sorted")
		}
	}
}

func mustNoErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestDifferential replays random operation traces against the in-memory
// oracle model (see fstest.RunDifferential).
func TestDifferential(t *testing.T) {
	fstest.RunDifferential(t, probedFS(4))
}

// probedFS returns the conformance factory: a fresh filesystem over the
// given number of servers and a zero-cost cluster whose every store call
// fstest.Probe checks.
func probedFS(servers int) fstest.Factory {
	return func(t *testing.T) fsapi.FileSystem {
		c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
		if err != nil {
			t.Fatal(err)
		}
		return New(fstest.Probe(t, c), cluster.ZeroProfile(), "alice", nil, servers)
	}
}
