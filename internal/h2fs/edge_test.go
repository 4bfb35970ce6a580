package h2fs

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/h2cloud/h2cloud/internal/fsapi"
)

// TestRecreateAfterRmdir: creating a directory with the same name as a
// tombstoned one must yield a fresh, empty namespace — the old children
// must not resurrect.
func TestRecreateAfterRmdir(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	mustNoErr(t, fs.WriteFile(ctx, "/d/old-child", []byte("old")))
	mustNoErr(t, fs.Rmdir(ctx, "/d"))
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	entries, err := fs.List(ctx, "/d", false)
	mustNoErr(t, err)
	if len(entries) != 0 {
		t.Fatalf("recreated directory inherited children: %+v", entries)
	}
	if _, err := fs.Stat(ctx, "/d/old-child"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("old child visible: %v", err)
	}
	mustNoErr(t, fs.WriteFile(ctx, "/d/new-child", []byte("new")))
	data, err := fs.ReadFile(ctx, "/d/new-child")
	mustNoErr(t, err)
	if string(data) != "new" {
		t.Fatalf("new child = %q", data)
	}
}

// TestRecreateFileAfterRemove: a removed file name can be reused.
func TestRecreateFileAfterRemove(t *testing.T) {
	fs := newFS(t)
	ctx := context.Background()
	mustNoErr(t, fs.WriteFile(ctx, "/f", []byte("v1")))
	mustNoErr(t, fs.Remove(ctx, "/f"))
	mustNoErr(t, fs.WriteFile(ctx, "/f", []byte("v2")))
	data, err := fs.ReadFile(ctx, "/f")
	mustNoErr(t, err)
	if string(data) != "v2" {
		t.Fatalf("recreated file = %q", data)
	}
}

// TestMoveChainPreservesContent: repeated moves of nested structures keep
// every file reachable and intact.
func TestMoveChainPreservesContent(t *testing.T) {
	fs := newFS(t)
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/a"))
	mustNoErr(t, fs.Mkdir(ctx, "/a/b"))
	mustNoErr(t, fs.WriteFile(ctx, "/a/b/f", []byte("cargo")))
	path := "/a"
	for i := 0; i < 5; i++ {
		next := fmt.Sprintf("/hop%d", i)
		mustNoErr(t, fs.Move(ctx, path, next))
		path = next
	}
	data, err := fs.ReadFile(ctx, path+"/b/f")
	mustNoErr(t, err)
	if string(data) != "cargo" {
		t.Fatalf("after move chain = %q", data)
	}
}

// TestRmdirOldParentKeepsMovedSubtree: eager GC of a directory must not
// follow the tombstone a MOVE left in it into the subtree's new home.
func TestRmdirOldParentKeepsMovedSubtree(t *testing.T) {
	fs := newFS(t) // EagerGC
	ctx := context.Background()
	for _, dir := range []string{"/a", "/a/b", "/c"} {
		mustNoErr(t, fs.Mkdir(ctx, dir))
	}
	mustNoErr(t, fs.WriteFile(ctx, "/a/b/f", []byte("cargo")))
	mustNoErr(t, fs.Move(ctx, "/a/b", "/c/b"))
	mustNoErr(t, fs.Rmdir(ctx, "/a"))
	if data, err := fs.ReadFile(ctx, "/c/b/f"); err != nil || string(data) != "cargo" {
		t.Fatalf("moved file after rmdir of its old parent = %q, %v", data, err)
	}
}

// TestCopyThenDivergence: after COPY, source and copy evolve separately
// at every level.
func TestCopyThenDivergence(t *testing.T) {
	fs := newFS(t)
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/src"))
	mustNoErr(t, fs.Mkdir(ctx, "/src/sub"))
	mustNoErr(t, fs.WriteFile(ctx, "/src/sub/f", []byte("base")))
	mustNoErr(t, fs.Copy(ctx, "/src", "/dst"))

	mustNoErr(t, fs.WriteFile(ctx, "/dst/sub/f", []byte("changed")))
	mustNoErr(t, fs.WriteFile(ctx, "/dst/sub/extra", []byte("x")))
	mustNoErr(t, fs.Remove(ctx, "/src/sub/f"))

	if _, err := fs.Stat(ctx, "/dst/sub/f"); err != nil {
		t.Fatalf("copy's file affected by source removal: %v", err)
	}
	entries, err := fs.List(ctx, "/src/sub", false)
	mustNoErr(t, err)
	if len(entries) != 0 {
		t.Fatalf("source gained entries from copy: %+v", entries)
	}
}

// TestWriteFileUpdatesModTime: overwrites refresh the tuple timestamp.
func TestWriteFileUpdatesModTime(t *testing.T) {
	fs := newFS(t)
	ctx := context.Background()
	mustNoErr(t, fs.WriteFile(ctx, "/f", []byte("1")))
	first, err := fs.Stat(ctx, "/f")
	mustNoErr(t, err)
	mustNoErr(t, fs.WriteFile(ctx, "/f", []byte("22")))
	second, err := fs.Stat(ctx, "/f")
	mustNoErr(t, err)
	if !second.ModTime.After(first.ModTime) {
		t.Fatalf("mtime not refreshed: %v -> %v", first.ModTime, second.ModTime)
	}
	if second.Size != 2 {
		t.Fatalf("size = %d", second.Size)
	}
}

// TestRangedReadThroughMiddleware: the O(d) resolve plus a ranged GET.
func TestRangedReadThroughMiddleware(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/v"))
	mustNoErr(t, fs.WriteFile(ctx, "/v/movie", []byte("0123456789")))
	part, err := m.ReadFileRange(ctx, "alice", "/v/movie", 3, 4)
	mustNoErr(t, err)
	if string(part) != "3456" {
		t.Fatalf("range = %q", part)
	}
	if _, err := m.ReadFileRange(ctx, "alice", "/v", 0, 1); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("range on dir = %v", err)
	}
	if _, err := m.ReadFileRange(ctx, "alice", "/v/movie", -1, 1); !errors.Is(err, fsapi.ErrInvalidPath) {
		t.Fatalf("negative offset = %v", err)
	}
}

// TestUsage accounts files and directories correctly after mutations.
func TestUsage(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/a"))
	mustNoErr(t, fs.WriteFile(ctx, "/a/f1", []byte("1234")))
	mustNoErr(t, fs.WriteFile(ctx, "/f2", []byte("56")))
	u, err := m.Usage(ctx, "alice")
	mustNoErr(t, err)
	if u.Dirs != 1 || u.Files != 2 || u.Bytes != 6 {
		t.Fatalf("usage = %+v", u)
	}
	mustNoErr(t, fs.Rmdir(ctx, "/a"))
	u, err = m.Usage(ctx, "alice")
	mustNoErr(t, err)
	if u.Dirs != 0 || u.Files != 1 || u.Bytes != 2 {
		t.Fatalf("usage after rmdir = %+v", u)
	}
}
