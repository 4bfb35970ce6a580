package h2fs

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/gossip"
	"github.com/h2cloud/h2cloud/internal/storemw"
)

// patchDeletes narrows a request log to the DELETEs of patch objects, as
// keys in the order they were sent.
func patchDeletes(reqs []string) []string {
	var keys []string
	for _, r := range reqs {
		if key, ok := strings.CutPrefix(r, "DELETE "); ok && core.KindOf(key) == core.KeyPatch {
			keys = append(keys, key)
		}
	}
	return keys
}

// storedPatches lists the patch objects the cluster holds, sorted.
func storedPatches(names []string) []string {
	var keys []string
	for _, name := range names {
		if core.KindOf(name) == core.KeyPatch {
			keys = append(keys, name)
		}
	}
	slices.Sort(keys)
	return keys
}

// wantNoOrphans fails unless a scrub of the whole store finds nothing
// unreachable.
func wantNoOrphans(t *testing.T, m *Middleware, names []string) {
	t.Helper()
	rep, err := m.Scrub(context.Background(), names, false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("scrub found orphans %v", rep.Orphans)
	}
}

// TestRmdirAfterFailedFlushCollectsOwnPatch: a flush whose ring put fails
// has already raised the node's own watermark in memory, while the patch
// it meant to fold stays in the store. Reclamation deletes the node's own
// patches by the range the descriptor submitted, not from that watermark,
// so an RMDIR right after the failure leaves no patch behind.
func TestRmdirAfterFailedFlushCollectsOwnPatch(t *testing.T) {
	c := newCluster(t)
	eng := chaos.New(chaos.Plan{}, nil)
	m := newMW(t, c, 1, func(cfg *Config) { cfg.Store = eng.Store(cfg.Store) })
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	mustNoErr(t, m.FlushAll(ctx))
	ns, err := m.ResolveNS(ctx, "alice", "/d")
	mustNoErr(t, err)
	mustNoErr(t, fs.WriteFile(ctx, "/d/f", []byte("x")))

	eng.FailOn(storemw.OpPut, core.RingKey("alice", ns))
	if err := m.FlushAll(ctx); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("flush with a failing ring put = %v, want the injected fault", err)
	}
	eng.FailOn(storemw.OpPut, "")
	mustNoErr(t, fs.Rmdir(ctx, "/d"))
	mustNoErr(t, m.FlushAll(ctx))
	wantNoOrphans(t, m, c.Names())
}

// TestGCPatchRequests pins what reclamation asks of patch objects. This
// node's own chain is known exactly — [firstUnflushed, nextSeq) — so it is
// deleted key by key with no probe, and a namespace it never patched costs
// no patch DELETE at all. A peer's chain is not known, so it is probed in
// patchProbeWindow keys from the peer's watermark.
func TestGCPatchRequests(t *testing.T) {
	ctx := context.Background()

	t.Run("copied subtree", func(t *testing.T) {
		c := newCluster(t)
		store, log := logged(c)
		m := newMW(t, c, 1, func(cfg *Config) { cfg.Store = store })
		buildSubtreeFixture(t, m, "alice")
		mustNoErr(t, m.FlushAll(ctx))
		mustNoErr(t, m.FS("alice").Copy(ctx, "/src", "/dst"))
		log.take()
		mustNoErr(t, m.FS("alice").Rmdir(ctx, "/dst"))
		reqs := log.take()
		if got := patchDeletes(reqs); len(got) != 0 {
			t.Fatalf("RMDIR of a copied subtree deleted patch keys %v, want none: a copy writes its rings directly", got)
		}
		// The copy's descriptors were born loaded, so the walk reads back
		// no ring it wrote and probes no chain it never started.
		var reads []string
		for _, r := range reqs {
			if key, ok := strings.CutPrefix(r, "GET "); ok && (core.KindOf(key) == core.KeyRing || core.KindOf(key) == core.KeyPatch) {
				reads = append(reads, key)
			}
		}
		if len(reads) != 0 {
			t.Fatalf("RMDIR of a fresh copy sent %d ring and patch GETs %v, want none", len(reads), reads)
		}
		// The seven namespaces were all reclaimed: the walk did run.
		if got := slices.DeleteFunc(reqs, func(r string) bool {
			key, ok := strings.CutPrefix(r, "DELETE ")
			return !ok || core.KindOf(key) != core.KeyRing
		}); len(got) != 7 {
			t.Fatalf("RMDIR deleted %d ring objects, want the copy's 7", len(got))
		}
	})

	t.Run("unflushed own patches", func(t *testing.T) {
		c := newCluster(t)
		store, log := logged(c)
		m := newMW(t, c, 1, func(cfg *Config) { cfg.Store = store })
		mustNoErr(t, m.CreateAccount(ctx, "alice"))
		fs := m.FS("alice")
		mustNoErr(t, fs.Mkdir(ctx, "/v"))
		mustNoErr(t, fs.Mkdir(ctx, "/v/s"))
		mustNoErr(t, m.FlushAll(ctx))
		for _, p := range []string{"/v/a", "/v/b", "/v/c", "/v/s/x"} {
			mustNoErr(t, fs.WriteFile(ctx, p, []byte("x")))
		}
		want := storedPatches(c.Names())
		if len(want) != 4 {
			t.Fatalf("victim holds patches %v, want the 4 unflushed writes", want)
		}
		log.take()
		mustNoErr(t, fs.Rmdir(ctx, "/v"))
		got := patchDeletes(log.take())
		slices.Sort(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RMDIR deleted patch keys %v, want exactly the stored %v", got, want)
		}
		mustNoErr(t, m.FlushAll(ctx))
		wantNoOrphans(t, m, c.Names())
	})

	t.Run("peer chain", func(t *testing.T) {
		c := newCluster(t)
		bus := gossip.NewBus()
		store, log := logged(c)
		m1 := newMW(t, c, 1, func(cfg *Config) { cfg.Store, cfg.Gossip = store, bus })
		m2 := newMW(t, c, 2, func(cfg *Config) { cfg.Gossip = bus })
		mustNoErr(t, m1.CreateAccount(ctx, "alice"))
		fs1, fs2 := m1.FS("alice"), m2.FS("alice")
		mustNoErr(t, fs1.Mkdir(ctx, "/d"))
		mustNoErr(t, m1.FlushAll(ctx))
		bus.Pump(ctx)
		mustNoErr(t, fs2.WriteFile(ctx, "/d/a", []byte("1")))
		mustNoErr(t, m2.FlushAll(ctx))
		bus.Pump(ctx)
		ns, err := m1.ResolveNS(ctx, "alice", "/d")
		mustNoErr(t, err)
		d := m1.lockedDesc("alice", ns)
		loaded, wm := d.loaded, d.watermarks.Get(2)
		m1.unlockDesc(d)
		if !loaded || wm != 1 {
			t.Fatalf("node 1 holds /d loaded=%v with node 2's watermark %d, want loaded at 1", loaded, wm)
		}
		// Node 2's next patch is one node 1 has never seen.
		mustNoErr(t, fs2.WriteFile(ctx, "/d/a", []byte("2")))
		log.take()
		mustNoErr(t, fs1.Rmdir(ctx, "/d"))
		var want []string
		for seq := 2; seq < 2+patchProbeWindow; seq++ {
			want = append(want, core.PatchKey("alice", ns, 2, seq))
		}
		if got := patchDeletes(log.take()); !reflect.DeepEqual(got, want) {
			t.Fatalf("RMDIR deleted patch keys %v, want one probe window of node 2's chain from seq 2:\n%v", got, want)
		}
		mustNoErr(t, m1.FlushAll(ctx))
		wantNoOrphans(t, m1, c.Names())
	})
}
