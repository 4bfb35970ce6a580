package h2fs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// TestLazyGC exercises the paper's actual deployment mode: RMDIR is pure
// fake deletion (no EagerGC), the subtree stays unreachable but physically
// present, and a later maintenance GC pass reclaims it.
func TestLazyGC(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1, func(cfg *Config) { cfg.EagerGC = false })
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	for i := 0; i < 5; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/d/f%d", i), []byte("x")))
	}
	res, err := m.resolve(ctx, "alice", "/d")
	mustNoErr(t, err)
	ns := res.tuple.NS
	mustNoErr(t, m.FlushAll(ctx))
	populated := c.Stats().Objects

	mustNoErr(t, fs.Rmdir(ctx, "/d"))
	mustNoErr(t, m.FlushAll(ctx))
	// Fake deletion: unreachable through the API ...
	if _, err := fs.Stat(ctx, "/d/f0"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("child reachable after rmdir: %v", err)
	}
	// ... but the objects are still in the cloud (only the dir-entry
	// tombstone was written).
	if got := c.Stats().Objects; got < populated-1 {
		t.Fatalf("objects already reclaimed without GC: %d < %d", got, populated-1)
	}
	// Maintenance GC reclaims the subtree plus the entry object.
	mustNoErr(t, m.gcNamespace(ctx, "alice", ns, ""))
	mustNoErr(t, c.Delete(ctx, childKeyForTest("alice", res.parentNS, "d")))
	mustNoErr(t, m.FlushAll(ctx))
	if got := c.Stats().Objects; got != 2 { // root record + root ring
		t.Fatalf("objects after GC = %d, want 2", got)
	}
}

func TestAccountFSAccessors(t *testing.T) {
	fs := newFS(t)
	if fs.Account() != "alice" {
		t.Fatalf("Account = %q", fs.Account())
	}
	if fs.Middleware() == nil {
		t.Fatal("Middleware() = nil")
	}
	if fs.Middleware().Store() == nil {
		t.Fatal("Store() = nil")
	}
}

func TestResolveNSErrors(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	if _, err := m.ResolveNS(ctx, "alice", "bad"); !errors.Is(err, fsapi.ErrInvalidPath) {
		t.Fatalf("ResolveNS(bad) = %v", err)
	}
	ns, err := m.ResolveNS(ctx, "alice", "/")
	mustNoErr(t, err)
	if ns == "" {
		t.Fatal("root namespace empty")
	}
}

func TestWriteFileChunkedErrors(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	if err := m.WriteFileChunked(ctx, "alice", "/d", bytes.NewReader([]byte("x")), 10); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("chunked write over dir = %v", err)
	}
	if err := m.WriteFileChunked(ctx, "alice", "/", bytes.NewReader(nil), 10); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("chunked write to / = %v", err)
	}
	if err := m.WriteFileChunked(ctx, "alice", "rel", bytes.NewReader(nil), 10); !errors.Is(err, fsapi.ErrInvalidPath) {
		t.Fatalf("chunked write rel = %v", err)
	}
	if err := m.WriteFileChunked(ctx, "alice", "/missing/f", bytes.NewReader(nil), 10); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("chunked write without parent = %v", err)
	}
	// Overwriting a chunked file with a chunked file reclaims the old
	// segments (more old chunks than new).
	mustNoErr(t, m.WriteFileChunked(ctx, "alice", "/d/f", bytes.NewReader(bytes.Repeat([]byte("a"), 50)), 10))
	baseline := c.Stats().Objects
	mustNoErr(t, m.WriteFileChunked(ctx, "alice", "/d/f", bytes.NewReader([]byte("tiny")), 10))
	mustNoErr(t, m.FlushAll(ctx))
	// 5 segments + manifest replaced by 1 segment + manifest.
	if got := baseline - c.Stats().Objects; got < 3 {
		t.Fatalf("old segments not reclaimed: shrank by %d", got)
	}
	data, err := fs.ReadFile(ctx, "/d/f")
	mustNoErr(t, err)
	if string(data) != "tiny" {
		t.Fatalf("read = %q", data)
	}
}

// mergeOnDelete runs the Background Merger the moment the delete of one
// key returns: the worst moment for a GC walk that has not yet condemned
// the descriptor of the ring it is deleting.
type mergeOnDelete struct {
	objstore.Store
	m   *Middleware
	key string
}

func (s *mergeOnDelete) Delete(ctx context.Context, name string) error {
	err := s.Store.Delete(ctx, name)
	if name == s.key {
		s.m.MaintainOnce(ctx)
	}
	return err
}

// TestGCCondemnsDescriptorBeforeDeleting: RMDIR of a directory with an
// unflushed write. A merger pass issued right after the walker deletes the
// directory's ring must not flush the doomed descriptor and put the ring
// back: the walker drops the descriptor before it deletes anything.
func TestGCCondemnsDescriptorBeforeDeleting(t *testing.T) {
	c := newCluster(t)
	hook := &mergeOnDelete{Store: c}
	m := newMW(t, c, 1, func(cfg *Config) { cfg.Store = hook })
	hook.m = m
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	mustNoErr(t, m.FlushAll(ctx))
	ns, err := m.ResolveNS(ctx, "alice", "/d")
	mustNoErr(t, err)
	mustNoErr(t, fs.WriteFile(ctx, "/d/f", []byte("x"))) // unflushed: /d's descriptor is dirty
	hook.key = core.RingKey("alice", ns)

	mustNoErr(t, fs.Rmdir(ctx, "/d"))
	if _, err := c.Head(ctx, hook.key); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("ring of the removed directory after RMDIR: err = %v, want not found (a merger pass put it back)", err)
	}
	mustNoErr(t, m.FlushAll(ctx))
	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans after RMDIR: %v", rep.Orphans)
	}
}
