package h2fs

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"github.com/h2cloud/h2cloud/internal/gossip"
)

// dirNamespaces resolves the namespace of dir and of every directory
// under it, depth first.
func dirNamespaces(t *testing.T, m *Middleware, account, dir string) []string {
	t.Helper()
	ctx := context.Background()
	ns, err := m.ResolveNS(ctx, account, dir)
	mustNoErr(t, err)
	out := []string{ns}
	entries, err := m.List(ctx, account, dir, false)
	mustNoErr(t, err)
	for _, e := range entries {
		if e.IsDir {
			out = append(out, dirNamespaces(t, m, account, dir+"/"+e.Name)...)
		}
	}
	return out
}

// TestCopyBornDescriptorIsALoad: the descriptor a COPY installs for each
// destination namespace holds what a load of that namespace from the store
// builds, field by field.
func TestCopyBornDescriptorIsALoad(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t)
	m := newMW(t, c, 1)
	buildSubtreeFixture(t, m, "alice")
	mustNoErr(t, m.FlushAll(ctx))
	mustNoErr(t, m.FS("alice").Copy(ctx, "/src", "/dst"))
	// Resolved on a second middleware of the same node, which loads every
	// ring it walks, so m's descriptors stay as the copy left them.
	fresh := newMW(t, c, 1)
	nss := dirNamespaces(t, fresh, "alice", "/dst")
	if len(nss) != 7 {
		t.Fatalf("/dst holds %d namespaces, want the fixture's 7", len(nss))
	}
	for _, ns := range nss {
		born := m.lockedDesc("alice", ns)
		loaded := fresh.lockedDesc("alice", ns)
		mustNoErr(t, fresh.load(ctx, loaded))
		if !born.loaded {
			t.Fatalf("namespace %s: the copy left no loaded descriptor", ns)
		}
		if born.isDirty() || !reflect.DeepEqual(born.local.All(), loaded.local.All()) ||
			!slices.Equal(born.watermarks, loaded.watermarks) || born.lay != loaded.lay ||
			!slices.Equal(born.tags, loaded.tags) || born.nextSeq != loaded.nextSeq ||
			born.firstUnflushed != loaded.firstUnflushed {
			t.Errorf("namespace %s: born {dirty %v, tuples %v, watermarks %v, layout %v, tags %q, next %d, first %d}, loaded {tuples %v, watermarks %v, layout %v, tags %q, next %d, first %d}",
				ns, born.isDirty(), born.local.All(), born.watermarks, born.lay, born.tags, born.nextSeq, born.firstUnflushed,
				loaded.local.All(), loaded.watermarks, loaded.lay, loaded.tags, loaded.nextSeq, loaded.firstUnflushed)
		}
		m.unlockDesc(born)
		fresh.unlockDesc(loaded)
	}
}

// TestCopyBornRingTakesPeerWrites: a born descriptor is an ordinary loaded
// one to gossip. A peer's write into the copy reaches the node that made
// it and a node that never saw the copy alike.
func TestCopyBornRingTakesPeerWrites(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t)
	bus := gossip.NewBus()
	onBus := func(cfg *Config) { cfg.Gossip = bus }
	m1, m2 := newMW(t, c, 1, onBus), newMW(t, c, 2, onBus)
	mustNoErr(t, m1.CreateAccount(ctx, "alice"))
	fs1 := m1.FS("alice")
	mustNoErr(t, fs1.Mkdir(ctx, "/a"))
	mustNoErr(t, fs1.WriteFile(ctx, "/a/f", []byte("f")))
	mustNoErr(t, fs1.Copy(ctx, "/a", "/c"))
	mustNoErr(t, m1.FlushAll(ctx))
	bus.Pump(ctx)
	mustNoErr(t, m2.FS("alice").WriteFile(ctx, "/c/x", []byte("x")))
	mustNoErr(t, m2.FlushAll(ctx))
	bus.Pump(ctx)
	m3 := newMW(t, c, 3)
	for _, m := range []*Middleware{m1, m3} {
		entries, err := m.List(ctx, "alice", "/c", false)
		mustNoErr(t, err)
		var names []string
		for _, e := range entries {
			names = append(names, e.Name)
		}
		if !slices.Equal(names, []string{"f", "x"}) {
			t.Errorf("node %d lists /c as %v, want [f x]", m.node, names)
		}
	}
}

// TestCopyBornUnderOneDescriptorCache: with room for one descriptor, every
// born ring but the last is released at once; reclaiming the copy still
// leaves nothing behind.
func TestCopyBornUnderOneDescriptorCache(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t)
	m := newMW(t, c, 1, func(cfg *Config) { cfg.DescCacheLimit = 1 })
	buildSubtreeFixture(t, m, "alice")
	mustNoErr(t, m.FlushAll(ctx))
	fs := m.FS("alice")
	mustNoErr(t, fs.Copy(ctx, "/src", "/dst"))
	mustNoErr(t, fs.Rmdir(ctx, "/dst"))
	mustNoErr(t, m.FlushAll(ctx))
	wantNoOrphans(t, m, c.Names())
}
