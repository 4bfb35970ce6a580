package h2fs

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/h2cloud/h2cloud/internal/cluster"
)

func chunkedFixture(t *testing.T) (*Middleware, *cluster.Cluster, *AccountFS, []byte) {
	t.Helper()
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/media"))
	content := make([]byte, 10*1000+37) // deliberately not chunk-aligned
	for i := range content {
		content[i] = byte(i % 251)
	}
	mustNoErr(t, m.WriteFileChunked(ctx, "alice", "/media/video.bin",
		bytes.NewReader(content), 1000))
	return m, c, fs, content
}

func TestChunkedWriteReadRoundTrip(t *testing.T) {
	_, c, fs, content := chunkedFixture(t)
	ctx := context.Background()
	got, err := fs.ReadFile(ctx, "/media/video.bin")
	mustNoErr(t, err)
	if !bytes.Equal(got, content) {
		t.Fatalf("assembled read differs: %d vs %d bytes", len(got), len(content))
	}
	// 11 segments + manifest + directory pieces live in the cloud.
	if st := c.Stats(); st.Objects < 12 {
		t.Fatalf("objects = %d, want >= 12", st.Objects)
	}
	info, err := fs.Stat(ctx, "/media/video.bin")
	mustNoErr(t, err)
	if info.Size != int64(len(content)) {
		t.Fatalf("Stat.Size = %d, want logical %d", info.Size, len(content))
	}
	entries, err := fs.List(ctx, "/media", true)
	mustNoErr(t, err)
	if len(entries) != 1 || entries[0].Size != int64(len(content)) {
		t.Fatalf("List detail = %+v", entries)
	}
}

// TestChunkedWriteAllocatesWhatArrives: the chunk size comes from the
// caller (over HTTP, a request header), so a small body at a huge chunk
// size must allocate for the body, not for the chunk.
func TestChunkedWriteAllocatesWhatArrives(t *testing.T) {
	m := newMW(t, newCluster(t), 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustNoErr(t, m.WriteFileChunked(ctx, "alice", "/f", bytes.NewReader([]byte("hello world")), 1<<30))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("an 11-byte chunked write allocated %d bytes", grew)
	}
	got, err := m.FS("alice").ReadFile(ctx, "/f")
	mustNoErr(t, err)
	if string(got) != "hello world" {
		t.Fatalf("read back %q", got)
	}
}

func TestChunkedRangedRead(t *testing.T) {
	m, _, _, content := chunkedFixture(t)
	ctx := context.Background()
	cases := []struct{ off, length int64 }{
		{0, 10},      // inside first chunk
		{995, 10},    // spans a chunk boundary
		{1000, 1000}, // exactly one chunk
		{9990, 100},  // into the final partial chunk
		{10020, -1},  // tail
		{99999, 10},  // past the end
		{0, -1},      // whole file
		{2500, 5000}, // spans many chunks
	}
	for _, cse := range cases {
		got, err := m.ReadFileRange(ctx, "alice", "/media/video.bin", cse.off, cse.length)
		mustNoErr(t, err)
		start := cse.off
		if start > int64(len(content)) {
			start = int64(len(content))
		}
		end := int64(len(content))
		if cse.length >= 0 && start+cse.length < end {
			end = start + cse.length
		}
		if !bytes.Equal(got, content[start:end]) {
			t.Fatalf("range(%d,%d): %d bytes, want %d", cse.off, cse.length, len(got), end-start)
		}
	}
}

func TestChunkedLifecycleReclaimsSegments(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	baseline := c.Stats().Objects

	content := bytes.Repeat([]byte("x"), 4096)
	mustNoErr(t, m.WriteFileChunked(ctx, "alice", "/big.bin", bytes.NewReader(content), 1024))
	mustNoErr(t, m.FlushAll(ctx))
	// 4 segments + manifest.
	if got := c.Stats().Objects - baseline; got != 5 {
		t.Fatalf("chunked write left %d objects, want 5", got)
	}
	// Remove reclaims everything.
	mustNoErr(t, fs.Remove(ctx, "/big.bin"))
	mustNoErr(t, m.FlushAll(ctx))
	if got := c.Stats().Objects - baseline; got != 0 {
		t.Fatalf("remove left %d objects", got)
	}
}

func TestChunkedOverwriteByPlainWrite(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	baseline := c.Stats().Objects
	mustNoErr(t, m.WriteFileChunked(ctx, "alice", "/f", bytes.NewReader(bytes.Repeat([]byte("y"), 3000)), 1000))
	mustNoErr(t, fs.WriteFile(ctx, "/f", []byte("tiny now")))
	mustNoErr(t, m.FlushAll(ctx))
	// Only the plain object remains: segments were reclaimed.
	if got := c.Stats().Objects - baseline; got != 1 {
		t.Fatalf("overwrite left %d objects, want 1", got)
	}
	data, err := fs.ReadFile(ctx, "/f")
	mustNoErr(t, err)
	if string(data) != "tiny now" {
		t.Fatalf("read = %q", data)
	}
}

func TestChunkedMoveAndCopy(t *testing.T) {
	_, c, fs, content := chunkedFixture(t)
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/backup"))
	mustNoErr(t, fs.Copy(ctx, "/media/video.bin", "/backup/copy.bin"))
	mustNoErr(t, fs.Move(ctx, "/media/video.bin", "/backup/moved.bin"))
	for _, p := range []string{"/backup/copy.bin", "/backup/moved.bin"} {
		data, err := fs.ReadFile(ctx, p)
		mustNoErr(t, err)
		if !bytes.Equal(data, content) {
			t.Fatalf("%s differs after copy/move", p)
		}
	}
	if _, err := fs.Stat(ctx, "/media/video.bin"); err == nil {
		t.Fatal("source survived move")
	}
	// Moving the PARENT DIRECTORY is still O(1): segments are keyed by the
	// directory's namespace, which does not change.
	before := c.Stats().Copies
	mustNoErr(t, fs.Move(ctx, "/backup", "/archive"))
	if got := c.Stats().Copies - before; got != 0 {
		t.Fatalf("directory move copied %d objects", got)
	}
	data, err := fs.ReadFile(ctx, "/archive/moved.bin")
	mustNoErr(t, err)
	if !bytes.Equal(data, content) {
		t.Fatal("chunked file unreadable after directory move")
	}
}

func TestChunkedRmdirGC(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	baseline := c.Stats().Objects
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	for i := 0; i < 3; i++ {
		mustNoErr(t, m.WriteFileChunked(ctx, "alice",
			fmt.Sprintf("/d/f%d", i), bytes.NewReader(bytes.Repeat([]byte("z"), 2500)), 1000))
	}
	mustNoErr(t, fs.Rmdir(ctx, "/d"))
	mustNoErr(t, m.FlushAll(ctx))
	if got := c.Stats().Objects - baseline; got != 0 {
		t.Fatalf("rmdir left %d objects (segments leaked)", got)
	}
}

func TestChunkedEmptyFile(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	mustNoErr(t, m.WriteFileChunked(ctx, "alice", "/empty", bytes.NewReader(nil), 1000))
	data, err := m.FS("alice").ReadFile(ctx, "/empty")
	mustNoErr(t, err)
	if len(data) != 0 {
		t.Fatalf("empty chunked read = %q", data)
	}
	info, err := m.FS("alice").Stat(ctx, "/empty")
	mustNoErr(t, err)
	if info.Size != 0 {
		t.Fatalf("Size = %d", info.Size)
	}
}
