package dpfs

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

func newFS(t testing.TB, profile cluster.CostProfile, opts ...Option) (*FS, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	return New(c, profile, "alice", nil, opts...), c
}

func TestConformance(t *testing.T) {
	fstest.Run(t, probedFS)
}

func TestMoveIsO1InSubtreeSize(t *testing.T) {
	fs, c := newFS(t, cluster.SwiftProfile())
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/dst"))
	cost := func(n int) time.Duration {
		dir := fmt.Sprintf("/d%d", n)
		mustNoErr(t, fs.Mkdir(ctx, dir))
		for i := 0; i < n; i++ {
			mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("%s/f%04d", dir, i), []byte("x")))
		}
		tr := vclock.NewTracker()
		mustNoErr(t, fs.Move(vclock.With(ctx, tr), dir, fmt.Sprintf("/dst/d%d", n)))
		return tr.Elapsed()
	}
	small, large := cost(5), cost(500)
	if large > 2*small {
		t.Fatalf("DP MOVE scaled with n: %v vs %v", small, large)
	}
	// MOVE must not touch content objects at all.
	before := c.Stats()
	mustNoErr(t, fs.Move(ctx, "/dst/d5", "/d5back"))
	after := c.Stats()
	if after.Copies != before.Copies || after.Puts != before.Puts || after.Deletes != before.Deletes {
		t.Fatal("DP MOVE touched the object cloud")
	}
}

func TestListCostLinearInM(t *testing.T) {
	// One index server keeps the walk cost a single constant RPC, so the
	// per-record component can be isolated.
	fs, _ := newFS(t, cluster.SwiftProfile(), WithServers(1))
	ctx := context.Background()
	cost := func(m int) time.Duration {
		dir := fmt.Sprintf("/l%d", m)
		mustNoErr(t, fs.Mkdir(ctx, dir))
		for i := 0; i < m; i++ {
			mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("%s/f%05d", dir, i), []byte("x")))
		}
		tr := vclock.NewTracker()
		_, err := fs.List(vclock.With(ctx, tr), dir, true)
		mustNoErr(t, err)
		return tr.Elapsed()
	}
	p := cluster.SwiftProfile()
	c100, c1000 := cost(100), cost(1000)
	// Subtract the constant index RPC; the per-record part must be ~10x.
	v100 := c100 - p.IndexRead
	v1000 := c1000 - p.IndexRead
	ratio := float64(v1000) / float64(v100)
	if ratio < 8 || ratio > 12 {
		t.Fatalf("LIST record cost ratio = %.1f, want ~10", ratio)
	}
}

func TestDynamicPartitioningBalancesLoad(t *testing.T) {
	fs, _ := newFS(t, cluster.ZeroProfile(), WithServers(4), WithSplitFactor(1.2), WithMinSplit(8))
	ctx := context.Background()
	// A deep, wide tree should spread across servers.
	for i := 0; i < 8; i++ {
		top := fmt.Sprintf("/t%d", i)
		mustNoErr(t, fs.Mkdir(ctx, top))
		for j := 0; j < 25; j++ {
			mustNoErr(t, fs.Mkdir(ctx, fmt.Sprintf("%s/s%d", top, j)))
		}
	}
	loads := fs.ServerLoads()
	total, max := 0, 0
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total != 8*25+8+1 {
		t.Fatalf("ServerLoads sum = %d, want %d (loads %v)", total, 8*25+8+1, loads)
	}
	for s, l := range loads {
		if l == 0 {
			t.Fatalf("server %d received no directories: %v", s, loads)
		}
	}
	if float64(max) > 2.2*float64(total)/float64(len(loads)) {
		t.Fatalf("partitioning left load imbalanced: %v", loads)
	}
}

func TestSingleServerNeverSplits(t *testing.T) {
	fs, _ := newFS(t, cluster.ZeroProfile(), WithServers(1))
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		mustNoErr(t, fs.Mkdir(ctx, fmt.Sprintf("/d%d", i)))
	}
	loads := fs.ServerLoads()
	if len(loads) != 1 || loads[0] != 21 {
		t.Fatalf("ServerLoads = %v", loads)
	}
}

func TestAccessCostFlatWithinPartition(t *testing.T) {
	// With one index server the whole walk is a single RPC regardless of
	// depth — the O(1)-looking Dropbox behaviour of Figure 13.
	fs, _ := newFS(t, cluster.SwiftProfile(), WithServers(1))
	ctx := context.Background()
	path := ""
	var costs []time.Duration
	for d := 1; d <= 10; d++ {
		path += fmt.Sprintf("/d%d", d)
		mustNoErr(t, fs.Mkdir(ctx, path))
		tr := vclock.NewTracker()
		_, err := fs.Stat(vclock.With(ctx, tr), path)
		mustNoErr(t, err)
		costs = append(costs, tr.Elapsed())
	}
	for _, c := range costs {
		if c != costs[0] {
			t.Fatalf("access cost varies with depth inside one partition: %v", costs)
		}
	}
}

func TestAccessCostFluctuatesAcrossPartitions(t *testing.T) {
	fs, _ := newFS(t, cluster.SwiftProfile(), WithServers(4), WithSplitFactor(0.5), WithMinSplit(1))
	ctx := context.Background()
	path := ""
	seen := map[time.Duration]bool{}
	for d := 1; d <= 12; d++ {
		path += fmt.Sprintf("/d%d", d)
		mustNoErr(t, fs.Mkdir(ctx, path))
		tr := vclock.NewTracker()
		_, err := fs.Stat(vclock.With(ctx, tr), path)
		mustNoErr(t, err)
		seen[tr.Elapsed()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("expected partition crossings to vary access cost, got %v", seen)
	}
}

func TestRmdirReclaimsContentObjects(t *testing.T) {
	fs, c := newFS(t, cluster.ZeroProfile())
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	for i := 0; i < 5; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/d/f%d", i), []byte("xx")))
	}
	mustNoErr(t, fs.Rmdir(ctx, "/d"))
	if st := c.Stats(); st.Objects != 0 {
		t.Fatalf("%d content objects left after rmdir", st.Objects)
	}
}

func TestCopyDuplicatesContent(t *testing.T) {
	fs, c := newFS(t, cluster.ZeroProfile())
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/s"))
	for i := 0; i < 4; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/s/f%d", i), []byte("hello")))
	}
	before := c.Stats().Copies
	mustNoErr(t, fs.Copy(ctx, "/s", "/t"))
	if got := c.Stats().Copies - before; got != 4 {
		t.Fatalf("copy performed %d object copies, want 4", got)
	}
	data, err := fs.ReadFile(ctx, "/t/f0")
	mustNoErr(t, err)
	if string(data) != "hello" {
		t.Fatalf("copied content = %q", data)
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

func BenchmarkDPStat(b *testing.B) {
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		b.Fatal(err)
	}
	fs := New(c, cluster.ZeroProfile(), "bench", nil)
	ctx := context.Background()
	path := ""
	for d := 0; d < 6; d++ {
		path += fmt.Sprintf("/d%d", d)
		if err := fs.Mkdir(ctx, path); err != nil {
			b.Fatal(err)
		}
	}
	if err := fs.WriteFile(ctx, path+"/leaf", []byte("x")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Stat(ctx, path+"/leaf"); err != nil {
			b.Fatal(err)
		}
	}
}
