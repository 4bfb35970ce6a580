package h2fs

import (
	"context"
	"strings"
	"testing"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/metrics"
)

// TestScrubCleanTreeAllLive: a healthy filesystem scrubs clean — every
// object classified live, nothing queued, nothing orphaned.
func TestScrubCleanTreeAllLive(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	buildVictim(t, m, "/zap")

	names := clusterNames(c)
	rep, err := m.Scrub(ctx, names, false)
	mustNoErr(t, err)
	if rep.Objects != len(names) || rep.Live != len(names) {
		t.Fatalf("report = %+v, want all %d objects live", rep, len(names))
	}
	if len(rep.Orphans) != 0 || rep.Queued != 0 || rep.Infra != 0 {
		t.Fatalf("clean tree misclassified: %+v", rep)
	}
	wantSound(t, rep)
}

// wantSound fails unless a quiescent scrub found no dangling tuple and no
// aliased namespace.
func wantSound(t *testing.T, rep ScrubReport) {
	t.Helper()
	if rep.Dangling != 0 || rep.Aliased != 0 {
		t.Fatalf("report = %+v, want no dangling tuple and no aliased namespace", rep)
	}
}

// TestScrubCountsDanglingTuple: a listed file whose object was deleted
// behind the middleware is a live tuple naming nothing.
func TestScrubCountsDanglingTuple(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/lost", []byte("x")))
	mustNoErr(t, m.FlushAll(ctx))
	root, err := m.rootNS(ctx, "alice")
	mustNoErr(t, err)
	mustNoErr(t, c.Delete(ctx, core.ChildKey("alice", root, "lost")))

	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if rep.Dangling != 1 || rep.Aliased != 0 || len(rep.Orphans) != 0 {
		t.Fatalf("report = %+v, want one dangling tuple", rep)
	}
}

// TestScrubCountsAliasedNamespace: a second live directory tuple patched
// onto an existing namespace makes the live walk reach it twice.
func TestScrubCountsAliasedNamespace(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	mustNoErr(t, m.FlushAll(ctx))
	root, err := m.rootNS(ctx, "alice")
	mustNoErr(t, err)
	ns, err := m.ResolveNS(ctx, "alice", "/keep")
	mustNoErr(t, err)
	now := m.now()
	mustNoErr(t, m.putDirObject(ctx, "alice", root, "alias", ns, now))
	mustNoErr(t, m.submitPatch(ctx, "alice", root, core.Tuple{Name: "alias", Time: now, Dir: true, NS: ns}))

	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if rep.Aliased != 1 || rep.Dangling != 0 || len(rep.Orphans) != 0 {
		t.Fatalf("report = %+v, want one aliased namespace", rep)
	}
}

// TestScrubReportsAndReclaimsOrphans: stray objects — an unknown
// namespace's child, a manifest-less segment — are reported as orphans
// and deleted only in reclaim mode, while the live tree is untouched.
func TestScrubReportsAndReclaimsOrphans(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)

	strays := []string{
		"alice|N9999::ghost",
		core.SegmentKey("alice", "N9999", "gone", 0),
	}
	for _, key := range strays {
		mustNoErr(t, c.Put(ctx, key, []byte("junk"), nil))
	}

	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != len(strays) || rep.Reclaimed != 0 {
		t.Fatalf("dry run report = %+v, want %d orphans and no reclaim", rep, len(strays))
	}

	rep, err = m.Scrub(ctx, clusterNames(c), true)
	mustNoErr(t, err)
	if rep.Reclaimed != len(strays) {
		t.Fatalf("reclaim run = %+v, want %d reclaimed", rep, len(strays))
	}
	assertKeepIntact(t, m)
	rep, err = m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans after reclaim: %v", rep.Orphans)
	}
	wantSound(t, rep)
}

// TestScrubReclaimSparesJustLinkedFile models WriteFile's create window
// racing a reclaim scrub: the key universe is listed after the content
// object lands but before its ring patch. By deletion time the patch
// has landed, so the re-verify pass must reclassify the file as live and
// spare it — the "can never free live data" regression a point-in-time
// listing alone cannot prevent. A stray under an unreachable namespace
// in the same pass must still be reclaimed.
func TestScrubReclaimSparesJustLinkedFile(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	mustNoErr(t, m.FlushAll(ctx))

	// The in-flight create: content object written, patch not yet
	// submitted — and the listing happens exactly now.
	rootNS, err := m.rootNS(ctx, "alice")
	mustNoErr(t, err)
	lateKey := core.ChildKey("alice", rootNS, "late")
	mustNoErr(t, c.Put(ctx, lateKey, []byte("late data"), nil))
	stray := "alice|N9999::ghost"
	mustNoErr(t, c.Put(ctx, stray, []byte("junk"), nil))
	names := clusterNames(c)

	// The patch lands before the scrub's reclaim step runs.
	mustNoErr(t, m.submitPatch(ctx, "alice", rootNS, core.Tuple{Name: "late", Time: m.now()}))

	rep, err := m.Scrub(ctx, names, true)
	mustNoErr(t, err)
	if rep.Reclaimed != 1 || len(rep.Orphans) != 1 || rep.Orphans[0] != stray {
		t.Fatalf("report = %+v, want only the stray reclaimed", rep)
	}
	data, err := m.FS("alice").ReadFile(ctx, "/late")
	mustNoErr(t, err)
	if string(data) != "late data" {
		t.Fatalf("just-linked file content = %q", data)
	}
}

// TestScrubSparesQueuedSubtree: a subtree awaiting its queued
// reclamation is garbage in flight, not an orphan — the scrubber must
// leave it to the drain, then agree the queue emptied.
func TestScrubSparesQueuedSubtree(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	m := newMW(t, c, 1, func(cfg *Config) {
		cfg.EagerGC = false
		cfg.GCQueue = true
		cfg.Metrics = reg
	})
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FlushAll(ctx))
	mustNoErr(t, m.FS("alice").Rmdir(ctx, "/zap"))

	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("queued subtree misreported as orphans: %v", rep.Orphans)
	}
	// The doomed subtree: dir entry, ring, 4 files, sub entry, sub ring,
	// deep file, chunked manifest + 5 segments. Entry + index are infra.
	if rep.Queued != 15 || rep.Infra != 2 {
		t.Fatalf("report = %+v, want 15 queued / 2 infra", rep)
	}

	_, err = m.DrainGC(ctx)
	mustNoErr(t, err)
	mustNoErr(t, m.FlushAll(ctx))
	rep, err = m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if rep.Queued != 0 || len(rep.Orphans) != 0 {
		t.Fatalf("post-drain report = %+v, want nothing queued, no orphans", rep)
	}
	wantSound(t, rep)
	assertKeepIntact(t, m)
}

// TestScrubReclaimsLazyGCGarbage: without the queue (legacy lazy GC), a
// tombstoned subtree is unreachable and unclaimed — exactly the orphan
// class — and scrub-with-reclaim is the fallback collector for it.
func TestScrubReclaimsLazyGCGarbage(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1, func(cfg *Config) {
		cfg.EagerGC = false
	})
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FlushAll(ctx))
	mustNoErr(t, m.FS("alice").Rmdir(ctx, "/zap"))
	mustNoErr(t, m.FlushAll(ctx))

	rep, err := m.Scrub(ctx, clusterNames(c), true)
	mustNoErr(t, err)
	if rep.Reclaimed != 15 {
		t.Fatalf("report = %+v, want the 15 tombstoned objects reclaimed", rep)
	}
	assertKeepIntact(t, m)
	rep, err = m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans after fallback reclaim: %v", rep.Orphans)
	}
	wantSound(t, rep)
}

// TestScrubRefusesCorruptRing: a ring that does not decode is not an empty
// directory. Reading it as one would leave the whole subtree under it
// unreachable and, in reclaim mode, delete it; the scrub fails naming the
// ring and deletes nothing.
func TestScrubRefusesCorruptRing(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	mustNoErr(t, fs.Mkdir(ctx, "/d/sub"))
	mustNoErr(t, fs.WriteFile(ctx, "/d/sub/f", []byte("kept")))
	mustNoErr(t, m.FlushAll(ctx))
	ns, err := m.ResolveNS(ctx, "alice", "/d")
	mustNoErr(t, err)
	ring := core.RingKey("alice", ns)
	mustNoErr(t, c.Put(ctx, ring, []byte("not a ring"), nil))

	before := len(clusterNames(c))
	rep, err := m.Scrub(ctx, clusterNames(c), true)
	if err == nil || !strings.Contains(err.Error(), ring) {
		t.Fatalf("scrub over a corrupt ring = %+v, %v; want an error naming %s", rep, err, ring)
	}
	if rep.Reclaimed != 0 || len(clusterNames(c)) != before {
		t.Fatalf("scrub over a corrupt ring reclaimed %d objects (%d stored, were %d)", rep.Reclaimed, len(clusterNames(c)), before)
	}
	if data, err := fs.ReadFile(ctx, "/d/sub/f"); err != nil || string(data) != "kept" {
		t.Fatalf("/d/sub/f after the scrub = %q, %v", data, err)
	}
}
