package h2fs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/storemw"
)

// newChaosMW builds a middleware over a zero-plan chaos store wrapping a
// fresh cluster; tests arm targeted triggers with FailOn to exercise the
// middleware's error paths.
func newChaosMW(t *testing.T) (*Middleware, *chaos.Engine) {
	t.Helper()
	eng := chaos.New(chaos.Plan{}, nil)
	m, err := New(Config{Store: eng.Store(newCluster(t)), Node: 1, EagerGC: true, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return m, eng
}

func TestMkdirFailsWhenDirObjectPutFails(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	eng.FailOn(storemw.OpPut, "::doomed")
	err := m.FS("alice").Mkdir(ctx, "/doomed")
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Mkdir = %v, want injected fault", err)
	}
	// The namespace must not have been recorded: the name stays free.
	eng.FailOn(storemw.OpPut, "")
	mustNoErr(t, m.FS("alice").Mkdir(ctx, "/doomed"))
}

func TestWriteFileFailsWhenContentPutFails(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	eng.FailOn(storemw.OpPut, "::payload")
	err := m.FS("alice").WriteFile(ctx, "/payload", []byte("x"))
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("WriteFile = %v", err)
	}
	// Blocking rule (§3.3.3): no patch was submitted, so the file must
	// not appear in the parent NameRing.
	entries, err := m.FS("alice").List(ctx, "/", false)
	mustNoErr(t, err)
	if len(entries) != 0 {
		t.Fatalf("failed write left ring entry: %+v", entries)
	}
}

func TestPatchSubmitFailureSurfaces(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	eng.FailOn(storemw.OpPut, ".Patch")
	err := m.FS("alice").WriteFile(ctx, "/f", []byte("x"))
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("WriteFile with patch failure = %v", err)
	}
}

func TestFlushFailureSurfacesAndRetries(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/f", []byte("x")))
	eng.FailOn(storemw.OpPut, "/NameRing/")
	if err := m.FlushAll(ctx); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("FlushAll = %v, want injected fault", err)
	}
	// The patch stays pending; a later flush succeeds and folds it.
	eng.FailOn(storemw.OpPut, "")
	mustNoErr(t, m.FlushAll(ctx))
	m2, err := New(Config{Store: m.Store(), Node: 2}) // fresh view, no local state
	mustNoErr(t, err)
	entries, err := m2.FS("alice").List(ctx, "/", false)
	mustNoErr(t, err)
	if len(entries) != 1 {
		t.Fatalf("entries after recovery flush = %+v", entries)
	}
}

func TestCopyTreeFailurePropagates(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	afs := m.FS("alice")
	mustNoErr(t, afs.Mkdir(ctx, "/src"))
	for i := 0; i < 3; i++ {
		mustNoErr(t, afs.WriteFile(ctx, fmt.Sprintf("/src/f%d", i), []byte("x")))
	}
	// Fail the destination ring write: the deep copy must error out.
	eng.FailOn(storemw.OpPut, "/NameRing/")
	// (flushes would also fail; Copy writes the fresh dst ring directly.)
	err := afs.Copy(ctx, "/src", "/dst")
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Copy = %v, want injected fault", err)
	}
}

func TestGCDeleteFailurePropagates(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	afs := m.FS("alice")
	mustNoErr(t, afs.Mkdir(ctx, "/d"))
	mustNoErr(t, afs.WriteFile(ctx, "/d/f", []byte("x")))
	eng.FailOn(storemw.OpDelete, "::f")
	if err := afs.Rmdir(ctx, "/d"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Rmdir with failing GC = %v", err)
	}
}

func TestCorruptRingObjectDetected(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	mustNoErr(t, m.FS("alice").Mkdir(ctx, "/d"))
	mustNoErr(t, m.FlushAll(ctx))
	// Corrupt the root ring object in the store.
	root, err := m.rootNS(ctx, "alice")
	mustNoErr(t, err)
	mustNoErr(t, c.Put(ctx, "alice|"+root+"::/NameRing/", []byte("garbage"), nil))
	// A fresh middleware must refuse to load the corrupt ring.
	m2 := newMW(t, c, 2)
	if _, err := m2.FS("alice").List(ctx, "/", false); err == nil ||
		!strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt ring load = %v, want corruption error", err)
	}
}

// TestCreateAccountKeepsTreeWhenRootHeadFails: only a missing root record
// means an account is absent. A root HEAD that failed for any other
// reason used to fall through to provisioning a fresh root namespace over
// the existing one, and the whole tree was lost.
func TestCreateAccountKeepsTreeWhenRootHeadFails(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	afs := m.FS("alice")
	mustNoErr(t, afs.WriteFile(ctx, "/keep", []byte("x")))
	eng.FailOn(storemw.OpHead, core.RootKey("alice"))
	if err := m.CreateAccount(ctx, "alice"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("CreateAccount with failing root HEAD = %v, want the injected fault", err)
	}
	eng.FailOn(storemw.OpHead, "")
	m.Recover()
	if data, err := afs.ReadFile(ctx, "/keep"); err != nil || string(data) != "x" {
		t.Fatalf("ReadFile(/keep) after the failed create = %q, %v", data, err)
	}
	entries, err := afs.List(ctx, "/", false)
	mustNoErr(t, err)
	if len(entries) != 1 {
		t.Fatalf("root after the failed create = %+v, want /keep", entries)
	}
}

// TestRootReadFaultIsNotAbsence: after a restart empties the root cache, a
// root record that cannot be read is a fault, not a missing account, and
// a file whose content HEAD fails has no size to report. Each failure
// surfaces with its own identity instead of as not-found or size 0.
func TestRootReadFaultIsNotAbsence(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	afs := m.FS("alice")
	mustNoErr(t, afs.WriteFile(ctx, "/f", []byte("x")))
	m.Recover()
	eng.FailOn(storemw.OpGet, core.RootKey("alice"))
	eng.FailOn(storemw.OpHead, core.RootKey("alice"))
	faulted := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, chaos.ErrInjected) || errors.Is(err, fsapi.ErrNotFound) {
			t.Fatalf("%s with an unreadable root record = %v, want the injected fault", op, err)
		}
	}
	_, err := afs.ReadFile(ctx, "/f")
	faulted("ReadFile", err)
	ok, err := m.AccountExists(ctx, "alice")
	faulted("AccountExists", err)
	if ok {
		t.Fatal("AccountExists reported true alongside its error")
	}
	_, err = afs.Stat(ctx, "/")
	faulted("Stat(/)", err)

	eng.FailOn(storemw.OpGet, "")
	eng.FailOn(storemw.OpHead, "::f")
	_, err = afs.Stat(ctx, "/f")
	faulted("Stat(/f)", err)
}

// TestDetailedListFailsOnHeadFault: a detailed LIST reports a child whose
// content object is gone as sizeless, like Stat, but a HEAD that failed
// for any other reason fails the page instead of reading as size 0.
func TestDetailedListFailsOnHeadFault(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	afs := m.FS("alice")
	mustNoErr(t, afs.WriteFile(ctx, "/f", []byte("xyz")))
	mustNoErr(t, afs.WriteFile(ctx, "/g", []byte("xy")))
	eng.FailOn(storemw.OpHead, "::f")
	if entries, err := afs.List(ctx, "/", true); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("detailed List with a failing HEAD = %+v, %v, want the injected fault", entries, err)
	}
	if entries, err := afs.List(ctx, "/", false); err != nil || len(entries) != 2 {
		t.Fatalf("plain List with a failing HEAD = %+v, %v, want both names", entries, err)
	}
	eng.FailOn(storemw.OpHead, "")
	entries, err := afs.List(ctx, "/", true)
	mustNoErr(t, err)
	if len(entries) != 2 || entries[0].Size != 3 || entries[1].Size != 2 {
		t.Fatalf("detailed List = %+v, want f of 3 bytes and g of 2", entries)
	}
}

// wantFile fails unless path is listed in / and reads back as data after
// the middleware drops every cached descriptor.
func wantFile(t *testing.T, m *Middleware, path, data string) {
	t.Helper()
	m.Recover()
	if names := listNames(t, m, "/"); !slices.Contains(names, path[1:]) {
		t.Fatalf("%s not listed after recovery: %v", path, names)
	}
	got, err := m.FS("alice").ReadFile(context.Background(), path)
	if err != nil || string(got) != data {
		t.Fatalf("ReadFile(%s) = %q, %v; want %q", path, got, err, data)
	}
}

// A Remove tombstones the name before it reclaims the bytes: a failed
// tombstone leaves the file whole, and a failed reclaim after it still
// surfaces but leaves the name gone.
func TestRemoveTombstonesBeforeReclaim(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	afs := m.FS("alice")
	mustNoErr(t, afs.WriteFile(ctx, "/f", []byte("x")))
	eng.FailOn(storemw.OpPut, ".Patch")
	if err := afs.Remove(ctx, "/f"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Remove with failing tombstone = %v, want injected fault", err)
	}
	eng.FailOn(storemw.OpPut, "")
	wantFile(t, m, "/f", "x")

	eng.FailOn(storemw.OpDelete, "::f")
	if err := afs.Remove(ctx, "/f"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Remove with failing reclaim = %v, want injected fault", err)
	}
	eng.FailOn(storemw.OpDelete, "")
	if n := m.Metrics().Counter("reclaim.errors"); n != 1 {
		t.Fatalf("reclaim.errors = %d after one failed reclaim, want 1", n)
	}
	m.Recover()
	if names := listNames(t, m, "/"); len(names) != 0 {
		t.Fatalf("removed file still listed: %v", names)
	}
}

// Account deletion commits before it reclaims, as every other deletion
// does: a delete that fails mid-walk leaves the account gone and what the
// walk missed as orphans for a scrub, never a live account whose names
// dangle.
func TestDeleteAccountCommitsBeforeReclaim(t *testing.T) {
	c := newCluster(t)
	eng := chaos.New(chaos.Plan{}, nil)
	m, err := New(Config{Store: eng.Store(c), Node: 1})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	afs := m.FS("alice")
	mustNoErr(t, afs.Mkdir(ctx, "/d"))
	mustNoErr(t, afs.WriteFile(ctx, "/d/a", []byte("a")))
	mustNoErr(t, afs.WriteFile(ctx, "/d/f", []byte("f")))
	mustNoErr(t, m.FlushAll(ctx))

	eng.FailOn(storemw.OpDelete, "::f")
	if err := m.DeleteAccount(ctx, "alice"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("DeleteAccount with failing reclaim = %v, want injected fault", err)
	}
	eng.FailOn(storemw.OpDelete, "")
	if ok, err := m.AccountExists(ctx, "alice"); err != nil || ok {
		t.Fatalf("AccountExists after a failed walk = %v, %v; want the deletion committed", ok, err)
	}
	if n := m.Metrics().Counter("reclaim.errors"); n != 1 {
		t.Fatalf("reclaim.errors = %d after one failed walk, want 1", n)
	}
	rep, err := m.Scrub(ctx, c.Names(), true)
	mustNoErr(t, err)
	if rep.Dangling != 0 || rep.Live != 0 || rep.Reclaimed == 0 {
		t.Fatalf("scrub after a failed walk = %+v, want orphans only", rep)
	}
	if n := len(c.Names()); n != 0 {
		t.Fatalf("%d objects left after the scrub reclaimed the orphans", n)
	}
}

// An overwrite of a chunked file puts the new content and its tuple
// before it deletes the old segments: a failed put leaves the old file
// whole, and a failed segment delete leaves the new one whole. A chunked
// write over a plain file deletes nothing up front either.
func TestOverwriteWritesBeforeItDeletes(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	mustNoErr(t, m.WriteFileChunked(ctx, "alice", "/f", strings.NewReader("0123456789"), 4))
	mustNoErr(t, m.FlushAll(ctx))
	eng.FailOn(storemw.OpPut, "::f")
	if err := m.FS("alice").WriteFile(ctx, "/f", []byte("new")); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("WriteFile with failing put = %v, want injected fault", err)
	}
	eng.FailOn(storemw.OpPut, "")
	wantFile(t, m, "/f", "0123456789")

	eng.FailOn(storemw.OpDelete, "/slo/f/")
	if err := m.FS("alice").WriteFile(ctx, "/f", []byte("new")); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("WriteFile with failing segment delete = %v, want injected fault", err)
	}
	eng.FailOn(storemw.OpDelete, "")
	wantFile(t, m, "/f", "new")
	if n := m.Metrics().Counter("reclaim.errors"); n != 1 {
		t.Fatalf("reclaim.errors = %d after one failed segment delete, want 1", n)
	}

	eng.FailOn(storemw.OpDelete, "::f")
	mustNoErr(t, m.WriteFileChunked(ctx, "alice", "/f", strings.NewReader("chunked again"), 4))
	eng.FailOn(storemw.OpDelete, "")
	wantFile(t, m, "/f", "chunked again")
}

// A file Move copies, patches the destination and tombstones the source
// before it deletes the source bytes: a failed patch leaves the source
// whole, and a failed reclaim leaves the destination whole.
func TestMoveReclaimsAfterFlip(t *testing.T) {
	m, eng := newChaosMW(t)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	afs := m.FS("alice")
	mustNoErr(t, afs.WriteFile(ctx, "/g", []byte("y")))
	eng.FailOn(storemw.OpPut, ".Patch")
	if err := afs.Move(ctx, "/g", "/h"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Move with failing patch = %v, want injected fault", err)
	}
	eng.FailOn(storemw.OpPut, "")
	wantFile(t, m, "/g", "y")

	eng.FailOn(storemw.OpDelete, "::g")
	if err := afs.Move(ctx, "/g", "/h"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Move with failing reclaim = %v, want injected fault", err)
	}
	eng.FailOn(storemw.OpDelete, "")
	wantFile(t, m, "/h", "y")
	if names := listNames(t, m, "/"); !slices.Equal(names, []string{"h"}) {
		t.Fatalf("listing after move = %v, want [h]", names)
	}

	// A directory Move deletes its old entry object only after both patches.
	mustNoErr(t, afs.Mkdir(ctx, "/d"))
	eng.FailOn(storemw.OpPut, ".Patch")
	if err := afs.Move(ctx, "/d", "/e"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("directory Move with failing patch = %v, want injected fault", err)
	}
	eng.FailOn(storemw.OpPut, "")
	root, err := m.rootNS(ctx, "alice")
	mustNoErr(t, err)
	if _, err := m.Store().Head(ctx, core.ChildKey("alice", root, "d")); err != nil {
		t.Fatalf("entry object of /d after a failed move: %v", err)
	}
}
