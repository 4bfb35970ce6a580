package casfs

import (
	"context"
	"fmt"
	"testing"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
)

func newFS(t testing.TB) (*FS, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	return New(c, cluster.ZeroProfile(), "alice", nil), c
}

func TestConformance(t *testing.T) {
	fstest.Run(t, probedFS)
}

func TestContentDeduplication(t *testing.T) {
	fs, c := newFS(t)
	ctx := context.Background()
	if err := fs.WriteFile(ctx, "/a", []byte("same-bytes")); err != nil {
		t.Fatal(err)
	}
	afterFirst := c.Stats().Objects
	if err := fs.WriteFile(ctx, "/b", []byte("same-bytes")); err != nil {
		t.Fatal(err)
	}
	// The second identical file adds only rewritten pointer blocks, not a
	// second content block: its hash key already exists.
	data, err := fs.ReadFile(ctx, "/b")
	if err != nil || string(data) != "same-bytes" {
		t.Fatalf("read = %q, %v", data, err)
	}
	// Root block changed (new object), content block did not.
	growth := c.Stats().Objects - afterFirst
	if growth > 1 {
		t.Fatalf("second identical write grew objects by %d, want <= 1 (dedup)", growth)
	}
}

func TestMutationRewritesChainToRoot(t *testing.T) {
	fs, c := newFS(t)
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/a"))
	mustNoErr(t, fs.Mkdir(ctx, "/a/b"))
	mustNoErr(t, fs.Mkdir(ctx, "/a/b/c"))
	before := c.Stats().Puts
	mustNoErr(t, fs.WriteFile(ctx, "/a/b/c/leaf", []byte("x")))
	// Content block + 4 pointer blocks (c, b, a, root) + ROOT pointer.
	if got := c.Stats().Puts - before; got != 6 {
		t.Fatalf("deep write performed %d puts, want 6 (chain rewrite)", got)
	}
}

func TestCopySharesSubtreeBlocks(t *testing.T) {
	fs, c := newFS(t)
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/src"))
	mustNoErr(t, fs.WriteFile(ctx, "/src/f", []byte("shared")))
	before := c.Stats().Copies
	mustNoErr(t, fs.Copy(ctx, "/src", "/dst"))
	if c.Stats().Copies != before {
		t.Fatal("CAS copy duplicated content blocks")
	}
	data, err := fs.ReadFile(ctx, "/dst/f")
	mustNoErr(t, err)
	if string(data) != "shared" {
		t.Fatalf("copied read = %q", data)
	}
	// Writing into the copy must not affect the source (copy-on-write).
	mustNoErr(t, fs.WriteFile(ctx, "/dst/f", []byte("changed")))
	data, err = fs.ReadFile(ctx, "/src/f")
	mustNoErr(t, err)
	if string(data) != "shared" {
		t.Fatalf("source after COW write = %q", data)
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

func BenchmarkCASWriteFileDepth3(b *testing.B) {
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		b.Fatal(err)
	}
	fs := New(c, cluster.ZeroProfile(), "bench", nil)
	ctx := context.Background()
	for _, d := range []string{"/a", "/a/b", "/a/b/c"} {
		if err := fs.Mkdir(ctx, d); err != nil {
			b.Fatal(err)
		}
	}
	data := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[0] = byte(i) // distinct content -> distinct hash
		data[1] = byte(i >> 8)
		data[2] = byte(i >> 16)
		if err := fs.WriteFile(ctx, fmt.Sprintf("/a/b/c/f%09d", i), data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDirBlockEncoding pins the pointer-block bytes: every block hash,
// and so every store key and charge, depends on them.
func TestDirBlockEncoding(t *testing.T) {
	entries := map[string]centry{
		"b\tx": {hash: "h2", size: 0, modNano: -1},
		"a":    {hash: "h1", isDir: true, size: 42, modNano: 1700000000000000000},
	}
	const want = "CASD/1\n" +
		"\"a\"\th1\tD\t42\t1700000000000000000\n" +
		"\"b\\tx\"\th2\tF\t0\t-1\n"
	got := encodeDirBlock(entries)
	if string(got) != want {
		t.Fatalf("encodeDirBlock = %q, want %q", got, want)
	}
	back, err := decodeDirBlock(got)
	mustNoErr(t, err)
	if len(back) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(back), len(entries))
	}
	for n, e := range entries {
		if back[n] != e {
			t.Fatalf("decoded %q = %+v, want %+v", n, back[n], e)
		}
	}
	for _, bad := range []string{"", "CASD/2\n", "CASD/1\n\"a\"\th\tF\t1\n", "CASD/1\n\"a\"\th\tF\t1\t2\t3\n", "CASD/1\na\th\tF\t1\t2\n"} {
		if _, err := decodeDirBlock([]byte(bad)); err == nil {
			t.Errorf("decodeDirBlock(%q) succeeded, want an error", bad)
		}
	}
}
