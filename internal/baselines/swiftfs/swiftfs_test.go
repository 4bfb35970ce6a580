package swiftfs

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

func newFS(t testing.TB, profile cluster.CostProfile) (*FS, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	return New(c, profile, "alice", nil), c
}

func TestConformance(t *testing.T) {
	fstest.Run(t, probedFS)
}

func TestListDelimiterQueryChildNames(t *testing.T) {
	fs, _ := newFS(t, cluster.ZeroProfile())
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	mustNoErr(t, fs.Mkdir(ctx, "/d/sub"))
	mustNoErr(t, fs.WriteFile(ctx, "/d/sub/deep1", []byte("x")))
	mustNoErr(t, fs.WriteFile(ctx, "/d/sub/deep2", []byte("x")))
	mustNoErr(t, fs.WriteFile(ctx, "/d/a", []byte("1")))
	mustNoErr(t, fs.WriteFile(ctx, "/d/z", []byte("2")))
	entries, err := fs.List(ctx, "/d", false)
	mustNoErr(t, err)
	want := []struct {
		name  string
		isDir bool
	}{{"a", false}, {"sub", true}, {"z", false}}
	if len(entries) != len(want) {
		t.Fatalf("List = %+v", entries)
	}
	for i, w := range want {
		if entries[i].Name != w.name || entries[i].IsDir != w.isDir {
			t.Fatalf("List[%d] = %+v, want %+v", i, entries[i], w)
		}
	}
}

func TestListTrickySiblingNames(t *testing.T) {
	// Sibling names that sort around the '/' delimiter must not be lost
	// by the subtree-skipping seeks.
	fs, _ := newFS(t, cluster.ZeroProfile())
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	mustNoErr(t, fs.Mkdir(ctx, "/d/name"))
	mustNoErr(t, fs.WriteFile(ctx, "/d/name/inner", []byte("x")))
	for _, n := range []string{"name!", "name.", "name0", "namez", "nam"} {
		mustNoErr(t, fs.WriteFile(ctx, "/d/"+n, []byte("x")))
	}
	entries, err := fs.List(ctx, "/d", false)
	mustNoErr(t, err)
	got := map[string]bool{}
	for _, e := range entries {
		got[e.Name] = true
	}
	for _, n := range []string{"nam", "name", "name!", "name.", "name0", "namez"} {
		if !got[n] {
			t.Fatalf("List lost sibling %q: %+v", n, entries)
		}
	}
	if len(entries) != 6 {
		t.Fatalf("List = %+v, want 6 entries", entries)
	}
}

func TestListCostScalesWithMLogN(t *testing.T) {
	fs, _ := newFS(t, cluster.SwiftProfile())
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/small"))
	mustNoErr(t, fs.Mkdir(ctx, "/bulk"))
	for i := 0; i < 20; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/small/f%02d", i), []byte("x")))
	}
	cost := func() time.Duration {
		tr := vclock.NewTracker()
		_, err := fs.List(vclock.With(ctx, tr), "/small", true)
		mustNoErr(t, err)
		return tr.Elapsed()
	}
	before := cost()
	// Grow N elsewhere: cost grows only logarithmically (not linearly as
	// in plain CH).
	for i := 0; i < 2000; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/bulk/f%04d", i), []byte("x")))
	}
	after := cost()
	if after > 4*before {
		t.Fatalf("LIST cost grew too fast with N: %v -> %v", before, after)
	}
	if after <= before {
		t.Fatalf("LIST cost did not grow with logN: %v -> %v", before, after)
	}
}

func TestMoveCostLinearInN(t *testing.T) {
	fs, c := newFS(t, cluster.SwiftProfile())
	ctx := context.Background()
	cost := func(n int) time.Duration {
		dir := fmt.Sprintf("/dir%d", n)
		mustNoErr(t, fs.Mkdir(ctx, dir))
		for i := 0; i < n; i++ {
			mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("%s/f%04d", dir, i), []byte("x")))
		}
		tr := vclock.NewTracker()
		mustNoErr(t, fs.Move(vclock.With(ctx, tr), dir, dir+"-moved"))
		return tr.Elapsed()
	}
	c10, c100 := cost(10), cost(100)
	_ = c
	ratio := float64(c100) / float64(c10)
	if ratio < 5 || ratio > 20 {
		t.Fatalf("MOVE cost ratio n=100/n=10 = %.1f, want ~10 (linear)", ratio)
	}
}

func TestDBTracksState(t *testing.T) {
	fs, _ := newFS(t, cluster.ZeroProfile())
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	mustNoErr(t, fs.WriteFile(ctx, "/d/f", []byte("xy")))
	if fs.DBLen() != 2 {
		t.Fatalf("DBLen = %d, want 2", fs.DBLen())
	}
	mustNoErr(t, fs.Rmdir(ctx, "/d"))
	if fs.DBLen() != 0 {
		t.Fatalf("DBLen after rmdir = %d, want 0", fs.DBLen())
	}
}

func TestCopyKeepsSourceRecords(t *testing.T) {
	fs, _ := newFS(t, cluster.ZeroProfile())
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/s"))
	mustNoErr(t, fs.WriteFile(ctx, "/s/f", []byte("abc")))
	mustNoErr(t, fs.Copy(ctx, "/s", "/t"))
	if fs.DBLen() != 4 {
		t.Fatalf("DBLen = %d, want 4", fs.DBLen())
	}
	data, err := fs.ReadFile(ctx, "/t/f")
	mustNoErr(t, err)
	if string(data) != "abc" {
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

func BenchmarkSwiftList1000(b *testing.B) {
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		b.Fatal(err)
	}
	fs := New(c, cluster.ZeroProfile(), "bench", nil)
	ctx := context.Background()
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := fs.WriteFile(ctx, fmt.Sprintf("/d/f%06d", i), []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.List(ctx, "/d", true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwiftWriteFile(b *testing.B) {
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		b.Fatal(err)
	}
	fs := New(c, cluster.ZeroProfile(), "bench", nil)
	ctx := context.Background()
	data := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile(ctx, fmt.Sprintf("/f%09d", i), data); err != nil {
			b.Fatal(err)
		}
	}
}
