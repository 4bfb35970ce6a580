package h2fs

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/gossip"
)

// TestProbedEntryPoints drives, on one probed store with sharded rings
// and the GC queue, the entry points the conformance suite never calls:
// chunked writes and range reads, paged and relative access, usage,
// gossip between two middlewares, a lazy drain after a restart, both
// scrub modes, and account deletion with the queue and without. Every
// call starts from fstest.Context, so each store call any of them makes,
// detached reclamation walks included, must carry it.
func TestProbedEntryPoints(t *testing.T) {
	ctx := fstest.Context()
	c := newCluster(t)
	store := fstest.Probe(t, c)
	bus := gossip.NewBus()
	shared := func(cfg *Config) {
		cfg.Store = store
		cfg.Gossip = bus
		cfg.Profile.DirShardThreshold = 3
	}
	queued := newMW(t, c, 1, shared, func(cfg *Config) { cfg.GCQueue, cfg.EagerGC = true, false })
	plain := newMW(t, c, 2, shared)
	mustNoErr(t, queued.CreateAccount(ctx, "alice"))
	fs := queued.FS("alice")

	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	for i := 0; i < 5; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/d/f%d", i), []byte("data")))
	}
	big := bytes.Repeat([]byte("0123456789"), 4)
	mustNoErr(t, queued.WriteFileChunked(ctx, "alice", "/big", bytes.NewReader(big), 16))
	for _, p := range []string{"/big", "/d/f0"} {
		want, _ := fs.ReadFile(ctx, p)
		if got, err := queued.ReadFileRange(ctx, "alice", p, 1, 2); err != nil || !bytes.Equal(got, want[1:3]) {
			t.Fatalf("ReadFileRange %s = %q, %v; want %q", p, got, err, want[1:3])
		}
	}
	for _, p := range []string{"/big2", "/big3"} {
		mustNoErr(t, fs.Copy(ctx, "/big", p))
	}
	mustNoErr(t, fs.WriteFile(ctx, "/big2", []byte("small")))
	mustNoErr(t, fs.Remove(ctx, "/big3"))
	page, next, err := queued.ListPage(ctx, "alice", "/d", true, "", 2)
	if err != nil || len(page) != 2 || next == "" {
		t.Fatalf("ListPage = %v, %q, %v; want 2 entries and a marker", page, next, err)
	}
	ns, err := queued.ResolveNS(ctx, "alice", "/d")
	mustNoErr(t, err)
	if data, _, err := queued.AccessRelative(ctx, "alice", ns+"::f0"); err != nil || string(data) != "data" {
		t.Fatalf("AccessRelative = %q, %v", data, err)
	}
	if u, err := queued.Usage(ctx, "alice"); err != nil || u.Files != 7 {
		t.Fatalf("Usage = %+v, %v; want 7 files", u, err)
	}

	mustNoErr(t, queued.FlushAll(ctx))
	if bus.Pump(ctx) == 0 {
		t.Fatal("the flush advertised nothing")
	}
	if got, err := plain.List(ctx, "alice", "/d", false); err != nil || len(got) != 5 {
		t.Fatalf("peer lists %v, %v under /d, want 5 files", got, err)
	}

	// A peer's patch chain on /d, which the reclamation walk collects.
	mustNoErr(t, plain.WriteFile(ctx, "alice", "/d/peer", []byte("p")))
	mustNoErr(t, plain.FlushAll(ctx))
	stray := "alice|N9999::ghost"
	mustNoErr(t, c.Put(ctx, stray, []byte("junk"), nil))
	mustNoErr(t, fs.Rmdir(ctx, "/d"))
	queued.Recover()
	if rep, err := queued.Scrub(ctx, c.Names(), false); err != nil || len(rep.Orphans) != 1 || rep.Queued == 0 {
		t.Fatalf("Scrub check = %+v, %v; want the stray alone orphaned and /d queued", rep, err)
	}
	if n, err := queued.DrainGC(ctx); err != nil || n != 1 {
		t.Fatalf("DrainGC after Recover = %d, %v; want 1", n, err)
	}
	if rep, err := queued.Scrub(ctx, c.Names(), true); err != nil || rep.Reclaimed != 1 {
		t.Fatalf("Scrub reclaim = %+v, %v; want the stray reclaimed", rep, err)
	}

	for _, m := range []*Middleware{queued, plain} {
		account := fmt.Sprintf("user%d", m.Node())
		mustNoErr(t, m.CreateAccount(ctx, account))
		mustNoErr(t, m.FS(account).Mkdir(ctx, "/x"))
		mustNoErr(t, m.FS(account).WriteFile(ctx, "/x/f", []byte("x")))
		mustNoErr(t, m.DeleteAccount(ctx, account))
	}
	if n, err := queued.DrainGC(ctx); err != nil || n != 1 {
		t.Fatalf("DrainGC after DeleteAccount = %d, %v; want 1", n, err)
	}
}
