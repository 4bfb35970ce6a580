package h2fs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/storemw"
)

// withShardThreshold arms directory sharding for a test middleware.
func withShardThreshold(n int) func(*Config) {
	return func(cfg *Config) { cfg.Profile.DirShardThreshold = n }
}

// bigDirNS resolves the namespace UUID of /big for assertions against the
// raw store layout.
func bigDirNS(t *testing.T, m *Middleware) string {
	t.Helper()
	ctx := context.Background()
	root, err := m.rootNS(ctx, "alice")
	mustNoErr(t, err)
	tup, ok, err := m.lookupChild(ctx, "alice", root, "big")
	mustNoErr(t, err)
	if !ok || tup.NS == "" {
		t.Fatalf("/big not found in root ring")
	}
	return tup.NS
}

// populateBig creates /big with n files named child0000..; returns the
// sorted child names.
func populateBig(t *testing.T, m *Middleware, n int) []string {
	t.Helper()
	ctx := context.Background()
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/big"))
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("child%04d", i)
		mustNoErr(t, fs.WriteFile(ctx, "/big/"+names[i], []byte("x")))
	}
	return names
}

func listNames(t *testing.T, m *Middleware, path string) []string {
	t.Helper()
	entries, err := m.FS("alice").List(context.Background(), path, false)
	mustNoErr(t, err)
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// TestDirShardSplitAndReadback: crossing the threshold converts the ring
// object into an H2DRX manifest plus extents, and both the splitting
// middleware and a cold peer read the directory back in full.
func TestDirShardSplitAndReadback(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1, withShardThreshold(8))
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	names := populateBig(t, m, 40)
	mustNoErr(t, m.FlushAll(ctx))

	ns := bigDirNS(t, m)
	data, _, err := c.Get(ctx, core.RingKey("alice", ns))
	mustNoErr(t, err)
	if !core.IsShardManifest(data) {
		t.Fatalf("ring object did not become a manifest: %q", data[:min(len(data), 40)])
	}
	man, err := core.DecodeShardManifest(data)
	mustNoErr(t, err)
	if man.Shards != 8 {
		t.Fatalf("shards = %d, want 8 (40 live / threshold 8)", man.Shards)
	}
	total := 0
	for _, ek := range man.Extents("alice", ns) {
		edata, _, err := c.Get(ctx, ek)
		mustNoErr(t, err)
		ext, err := core.DecodeNameRing(edata)
		mustNoErr(t, err)
		total += ext.TotalLen()
	}
	if total != 40 {
		t.Fatalf("extents hold %d tuples, want 40", total)
	}

	// The splitting middleware still serves the directory.
	if got := listNames(t, m, "/big"); len(got) != 40 {
		t.Fatalf("List after split = %d entries", len(got))
	}
	// A cold peer loads via the manifest fan-out and sees everything.
	m2 := newMW(t, c, 2, withShardThreshold(8))
	got := listNames(t, m2, "/big")
	if len(got) != len(names) {
		t.Fatalf("peer List = %d entries, want %d", len(got), len(names))
	}
	for i := range got {
		if got[i] != names[i] {
			t.Fatalf("peer List[%d] = %q, want %q", i, got[i], names[i])
		}
	}
	// The peer can patch the sharded directory and flush through the
	// steady sharded path.
	mustNoErr(t, m2.FS("alice").WriteFile(ctx, "/big/extra", []byte("y")))
	mustNoErr(t, m2.FlushAll(ctx))
	m3 := newMW(t, c, 3, withShardThreshold(8))
	if got := listNames(t, m3, "/big"); len(got) != 41 {
		t.Fatalf("after peer write, cold List = %d entries, want 41", len(got))
	}
}

// TestDirShardSteadyFlushWriteAmplification: once sharded, a one-child
// patch flush rewrites O(m/shards) ring bytes, not O(m). The monolithic
// control run pins the baseline the sharded run must beat by >= 4x.
func TestDirShardSteadyFlushWriteAmplification(t *testing.T) {
	ctx := context.Background()
	perPatchRingBytes := func(threshold int) int64 {
		m := newMW(t, newCluster(t), 1, withShardThreshold(threshold))
		mustNoErr(t, m.CreateAccount(ctx, "alice"))
		populateBig(t, m, 256)
		mustNoErr(t, m.FlushAll(ctx))
		before := m.Metrics().Requests() // discard population and split cost
		mustNoErr(t, m.FS("alice").WriteFile(ctx, "/big/onemore", []byte("x")))
		mustNoErr(t, m.FlushAll(ctx))
		put := m.Metrics().Requests().Sub(before)[metrics.PrimPut]
		return put[core.KeyRing].Bytes + put[core.KeyExtent].Bytes
	}
	mono := perPatchRingBytes(0)
	sharded := perPatchRingBytes(16) // 256/16 = 16 shards
	if sharded*4 > mono {
		t.Fatalf("sharded per-patch ring bytes %d not >=4x below monolithic %d", sharded, mono)
	}
}

// TestDirShardMergeBackToMonolithic: shrinking far below the threshold
// flips the directory back to one ring object and deletes the extents.
func TestDirShardMergeBackToMonolithic(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	m := newMW(t, c, 1, withShardThreshold(8), func(cfg *Config) { cfg.Metrics = reg })
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	names := populateBig(t, m, 40)
	mustNoErr(t, m.FlushAll(ctx))
	ns := bigDirNS(t, m)

	fs := m.FS("alice")
	for _, name := range names[2:] {
		mustNoErr(t, fs.Remove(ctx, "/big/"+name))
	}
	mustNoErr(t, m.FlushAll(ctx))

	data, _, err := c.Get(ctx, core.RingKey("alice", ns))
	mustNoErr(t, err)
	if core.IsShardManifest(data) {
		t.Fatal("directory did not merge back to a monolithic ring")
	}
	ring, err := core.DecodeNameRing(data)
	mustNoErr(t, err)
	if ring.Len() != 2 {
		t.Fatalf("monolithic ring has %d live, want 2", ring.Len())
	}
	for _, ek := range (core.ShardManifest{Shards: 8}).Extents("alice", ns) {
		if _, _, err := c.Get(ctx, ek); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("old extent %s survived the merge (err=%v)", ek, err)
		}
	}
	if got := reg.Counter("dirShard.splits"); got != 1 {
		t.Errorf("dirShard.splits = %d, want 1", got)
	}
	if got := reg.Counter("dirShard.merges"); got != 1 {
		t.Errorf("dirShard.merges = %d, want 1", got)
	}
	if got := reg.Counter("dirShard.extents"); got != 0 {
		t.Errorf("dirShard.extents = %d, want 0 after merge-back", got)
	}
}

// TestDirShardPaginationAcrossExtents: ListPage tokens are child names,
// so every token — including ones landing exactly on an extent boundary —
// resumes correctly over a sharded directory. Paging with limit 1 forces
// a token at every possible boundary.
func TestDirShardPaginationAcrossExtents(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1, withShardThreshold(8))
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	names := populateBig(t, m, 50)
	mustNoErr(t, m.FlushAll(ctx))

	// A cold peer pages through the sharded representation.
	m2 := newMW(t, c, 2, withShardThreshold(8))
	var got []string
	marker := ""
	for {
		entries, next, err := m2.ListPage(ctx, "alice", "/big", false, marker, 1)
		mustNoErr(t, err)
		for _, e := range entries {
			got = append(got, e.Name)
		}
		if next == "" {
			break
		}
		marker = next
	}
	if len(got) != len(names) {
		t.Fatalf("paged %d entries, want %d", len(got), len(names))
	}
	for i := range got {
		if got[i] != names[i] {
			t.Fatalf("page order broke at %d: %q != %q", i, got[i], names[i])
		}
	}
}

// TestDirShardSplitMidList: a client holding a pagination token across
// the directory's split still sees every surviving original child
// exactly once.
func TestDirShardSplitMidList(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1, withShardThreshold(8))
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	names := populateBig(t, m, 30)

	entries, marker, err := m.ListPage(ctx, "alice", "/big", false, "", 10)
	mustNoErr(t, err)
	seen := map[string]int{}
	for _, e := range entries {
		seen[e.Name]++
	}
	if marker == "" {
		t.Fatal("expected a continuation token")
	}

	// The directory splits while the client holds the token.
	mustNoErr(t, m.FlushAll(ctx))
	ns := bigDirNS(t, m)
	if data, _, err := c.Get(ctx, core.RingKey("alice", ns)); err != nil || !core.IsShardManifest(data) {
		t.Fatalf("directory did not split mid-list (err=%v)", err)
	}

	for marker != "" {
		var page []struct{}
		_ = page
		entries, next, err := m.ListPage(ctx, "alice", "/big", false, marker, 7)
		mustNoErr(t, err)
		for _, e := range entries {
			seen[e.Name]++
		}
		marker = next
	}
	for _, name := range names {
		if seen[name] != 1 {
			t.Fatalf("child %q seen %d times across the split", name, seen[name])
		}
	}
}

// TestDirShardCrashMidSplitConverges: a crash after the new extents are
// written but before the manifest flip leaves the monolithic ring intact
// and the half-split extents unreferenced. Replay converges (the patch
// chain still holds every update), Scrub reclaims the abandoned extents,
// and the retried flush completes the split with zero orphans.
func TestDirShardCrashMidSplitConverges(t *testing.T) {
	c := newCluster(t)
	// Every manifest put fails while armed: a crash exactly between the
	// extent writes and the manifest flip.
	var armed atomic.Bool
	flip := storemw.Before(func(_ context.Context, _ storemw.Op, _ string, data []byte) error {
		if armed.Load() && core.IsShardManifest(data) {
			return fmt.Errorf("flip injected: %w", objstore.ErrNodeDown)
		}
		return nil
	})
	cfg := Config{Store: flip(c), Node: 1, Profile: c.Profile(), EagerGC: true}
	cfg.Profile.DirShardThreshold = 8
	m, err := New(cfg)
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	populateBig(t, m, 40)

	armed.Store(true)
	if err := m.FlushAll(ctx); !errors.Is(err, objstore.ErrNodeDown) {
		t.Fatalf("flush during flip failure = %v, want the injected fault", err)
	}
	armed.Store(false)

	// Crash and restart: the patch chain replays into a converged view.
	m.Recover()
	if got := listNames(t, m, "/big"); len(got) != 40 {
		t.Fatalf("List after crash = %d entries, want 40", len(got))
	}

	// The half-written extents are unreferenced; Scrub reclaims exactly
	// them and nothing else.
	ns := bigDirNS(t, m)
	rep, err := m.Scrub(ctx, clusterNames(c), true)
	mustNoErr(t, err)
	if rep.Reclaimed != 8 {
		t.Fatalf("scrub reclaimed %d objects, want the 8 abandoned extents: %+v", rep.Reclaimed, rep)
	}
	for _, o := range rep.Orphans {
		if core.KindOf(o) != core.KeyExtent {
			t.Fatalf("scrub reclaimed non-extent %q", o)
		}
	}

	// The retried flush completes the split; a second scrub is clean.
	mustNoErr(t, m.FlushAll(ctx))
	if data, _, err := c.Get(ctx, core.RingKey("alice", ns)); err != nil || !core.IsShardManifest(data) {
		t.Fatalf("split never completed after retry (err=%v)", err)
	}
	rep, err = m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans after recovered split: %v", rep.Orphans)
	}
	if got := listNames(t, m, "/big"); len(got) != 40 {
		t.Fatalf("List after recovered split = %d entries, want 40", len(got))
	}
}

// TestDirShardGCReclaimsExtents: removing a sharded directory reclaims
// its manifest and every extent — nothing survives for fsck to flag.
func TestDirShardGCReclaimsExtents(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1, withShardThreshold(8))
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	names := populateBig(t, m, 40)
	mustNoErr(t, m.FlushAll(ctx))
	ns := bigDirNS(t, m)

	fs := m.FS("alice")
	for _, name := range names {
		mustNoErr(t, fs.Remove(ctx, "/big/"+name))
	}
	mustNoErr(t, fs.Rmdir(ctx, "/big"))
	for _, ek := range (core.ShardManifest{Shards: 8}).Extents("alice", ns) {
		if _, _, err := c.Get(ctx, ek); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("extent %s survived rmdir GC (err=%v)", ek, err)
		}
	}
	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans after sharded rmdir: %v", rep.Orphans)
	}
}

// TestReadRingCompleteOrError: the shared full reader returns the whole
// stored ring or fails. A referenced-but-missing extent is the one thing it
// reads as empty; an extent that does not decode, or cannot be fetched, is
// an error — the scrubber and h2inspect act on what it returns, so a
// silently shorter ring would delete or hide live children.
func TestReadRingCompleteOrError(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1, withShardThreshold(8))
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	populateBig(t, m, 40)
	mustNoErr(t, m.FlushAll(ctx))
	ns := bigDirNS(t, m)

	rr, err := ReadRing(ctx, c, "alice", ns)
	mustNoErr(t, err)
	if rr.Layout.Shards != 8 || len(rr.Extents) != 8 || rr.Ring.Len() != 40 || rr.Head.Meta["wm.1"] == "" {
		t.Fatalf("full read = layout %+v, %d extents, %d live, head meta %v", rr.Layout, len(rr.Extents), rr.Ring.Len(), rr.Head.Meta)
	}
	root, err := m.rootNS(ctx, "alice")
	mustNoErr(t, err)
	if mono, err := ReadRing(ctx, c, "alice", root); err != nil || mono.Layout.Shards != 1 || mono.Extents != nil || mono.Ring.Len() != 1 {
		t.Fatalf("monolithic read = %+v, %v", mono, err)
	}
	if _, err := ReadRing(ctx, c, "alice", "no-such-ns"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("read of a missing ring = %v, want not found", err)
	}

	eng := chaos.New(chaos.Plan{}, nil)
	eng.FailOn(storemw.OpGet, rr.Extents[3])
	if _, err := ReadRing(ctx, eng.Store(c), "alice", ns); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("read with an unfetchable extent = %v, want the injected fault", err)
	}
	held, _, err := c.Get(ctx, rr.Extents[3])
	mustNoErr(t, err)
	ext, err := core.DecodeNameRing(held)
	mustNoErr(t, err)
	mustNoErr(t, c.Delete(ctx, rr.Extents[3]))
	if torn, err := ReadRing(ctx, c, "alice", ns); err != nil || torn.Ring.Len() != 40-ext.Len() {
		t.Fatalf("read with a missing extent = %v; want the other extents' tuples and no error", err)
	}
	mustNoErr(t, c.Put(ctx, rr.Extents[3], []byte("not a ring"), nil))
	if _, err := ReadRing(ctx, c, "alice", ns); err == nil || !strings.Contains(err.Error(), "extent 3") {
		t.Fatalf("read with a corrupt extent = %v, want an error naming extent 3", err)
	}
}

// nameInShard returns the first prefix<i> name routing to (or, with in
// false, away from) the given extent of a shards-wide layout, starting
// the search at *next so successive calls yield distinct names.
func nameInShard(prefix string, next *int, shard, shards int, in bool) string {
	for ; ; *next++ {
		name := fmt.Sprintf("%s%04d", prefix, *next)
		if (core.ShardOf(name, shards) == shard) == in {
			*next++
			return name
		}
	}
}

// refetched reads the flushes that failed a precondition and read again.
func refetched(reg *metrics.Registry) int64 { return reg.Counter("flush.refetched") }

// extentTagsOf snapshots the tags a directory descriptor remembers for its
// extents; a monolithic ring's one extent is the object at RingKey.
func extentTagsOf(m *Middleware, ns string) []string {
	d := m.lockedDesc("alice", ns)
	defer m.unlockDesc(d)
	if d.lay.Shards == 1 {
		return []string{d.headTag}
	}
	return append([]string(nil), d.tags...)
}

// TestDirShardFlushFetchesPeerRewrittenExtent: a peer rewrites an extent
// between two of our flushes. Our put over the remembered tag fails its
// precondition, so exactly that extent is fetched and merged before it is
// put again; the extent we alone touch is never read. No tuple of either
// node is lost.
func TestDirShardFlushFetchesPeerRewrittenExtent(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	m1 := newMW(t, c, 1, withShardThreshold(8), func(cfg *Config) { cfg.Metrics = reg })
	ctx := context.Background()
	mustNoErr(t, m1.CreateAccount(ctx, "alice"))
	populateBig(t, m1, 40)
	mustNoErr(t, m1.FlushAll(ctx)) // split into 8 extents

	const shared, own = 3, 5
	next := 0
	m2 := newMW(t, c, 2, withShardThreshold(8))
	mustNoErr(t, m2.FS("alice").WriteFile(ctx, "/big/"+nameInShard("peer", &next, shared, 8, true), []byte("p")))
	mustNoErr(t, m2.FlushAll(ctx))

	fs := m1.FS("alice")
	mustNoErr(t, fs.WriteFile(ctx, "/big/"+nameInShard("mine", &next, shared, 8, true), []byte("m")))
	mustNoErr(t, fs.WriteFile(ctx, "/big/"+nameInShard("mine", &next, own, 8, true), []byte("m")))
	before := reg.Requests()
	mustNoErr(t, m1.FlushAll(ctx))
	if r := refetched(reg); r != 1 {
		t.Fatalf("refetched = %d, want 1", r)
	}
	if got := reg.Requests().Sub(before)[metrics.PrimGet][core.KeyExtent].N; got != 1 {
		t.Fatalf("the flush fetched %d extents, want 1 (extent %d rewritten by the peer; extent %d untouched)", got, shared, own)
	}
	if got := listNames(t, m1, "/big"); len(got) != 43 {
		t.Fatalf("our view after the merge = %d entries, want 43", len(got))
	}
	if got := listNames(t, newMW(t, c, 3, withShardThreshold(8)), "/big"); len(got) != 43 {
		t.Fatalf("stored view = %d entries, want 43 (40 + peer's 1 + our 2)", len(got))
	}
}

// TestDirShardSteadyFlushReadsNothing: a single writer's steady flush puts
// its dirty extent and the manifest over their remembered tags and fetches
// nothing — read amplification is zero, not O(m). Over a store without a
// Batcher, objstore.MultiPut checks each precondition by HEAD.
func TestDirShardSteadyFlushReadsNothing(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	// The bare Store interface hides the cluster's Batcher.
	m := newMW(t, c, 1, withShardThreshold(16), func(cfg *Config) {
		cfg.Store, cfg.Metrics = struct{ objstore.Store }{c}, reg
	})
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	populateBig(t, m, 256)
	mustNoErr(t, m.FlushAll(ctx))
	before := reg.Requests()
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/big/onemore", []byte("x")))
	mustNoErr(t, m.FlushAll(ctx))
	get := reg.Requests().Sub(before)[metrics.PrimGet]
	if ring, ext := get[core.KeyRing], get[core.KeyExtent]; ring.N != 0 || ext.N != 0 {
		t.Fatalf("steady flush fetched %d rings and %d extents, want none", ring.N, ext.N)
	}
	if r := refetched(reg); r != 0 {
		t.Fatalf("refetched = %d, want 0", r)
	}
}

// TestDirShardSteadyFlushReadsNothingOverBatcher is the twin of the test
// above over storemw and the cluster's native Batcher, where the tags are
// the ETags MultiPut reports rather than the fallback's hash and the store
// checks each precondition itself: the steady flush is one MultiPut of the
// dirty extent and one PUT of the manifest, and asks nothing else.
func TestDirShardSteadyFlushReadsNothingOverBatcher(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	m := newMW(t, c, 1, withShardThreshold(16), func(cfg *Config) {
		cfg.Metrics = reg
	})
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	populateBig(t, m, 256)
	mustNoErr(t, m.FlushAll(ctx))
	before := reg.Requests()
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/big/onemore", []byte("x")))
	mustNoErr(t, m.FlushAll(ctx))
	d := reg.Requests().Sub(before)
	if ext, ring := d[metrics.PrimPut][core.KeyExtent].N, d[metrics.PrimPut][core.KeyRing].N; ext != 1 || ring != 1 {
		t.Fatalf("steady flush put %d extents and %d manifests, want the one dirty extent and the manifest", ext, ring)
	}
	for _, p := range []metrics.Primitive{metrics.PrimGet, metrics.PrimHead} {
		if ext, ring := d[p][core.KeyExtent].N, d[p][core.KeyRing].N; ext != 0 || ring != 0 {
			t.Fatalf("steady flush read %d extents and %d manifests (primitive %d), want none", ext, ring, p)
		}
	}
	if r := refetched(reg); r != 0 {
		t.Fatalf("refetched = %d, want 0", r)
	}
}

// TestDirShardResplitKeepsPeerOnlyExtents: a node that has only ever
// validated the extents it dirtied holds none of the tuples a peer put in
// another extent. When its own growth crosses the re-split threshold the
// flush must read the whole store state before it re-partitions, or the
// new layout would drop them.
func TestDirShardResplitKeepsPeerOnlyExtents(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	m1 := newMW(t, c, 1, withShardThreshold(8), func(cfg *Config) { cfg.Metrics = reg })
	ctx := context.Background()
	mustNoErr(t, m1.CreateAccount(ctx, "alice"))
	populateBig(t, m1, 40)
	mustNoErr(t, m1.FlushAll(ctx)) // 8 extents; re-split past 2*8*8 = 128 live

	const peers = 4
	next := 0
	m2 := newMW(t, c, 2, withShardThreshold(8))
	for i := 0; i < 5; i++ {
		mustNoErr(t, m2.FS("alice").WriteFile(ctx, "/big/"+nameInShard("peer", &next, peers, 8, true), []byte("p")))
	}
	mustNoErr(t, m2.FlushAll(ctx))

	// m1 grows the directory without ever dirtying the peer's extent.
	fs := m1.FS("alice")
	for i := 0; i < 100; i++ {
		mustNoErr(t, fs.WriteFile(ctx, "/big/"+nameInShard("mine", &next, peers, 8, false), []byte("m")))
		if i == 49 {
			before := reg.Requests()
			mustNoErr(t, m1.FlushAll(ctx))
			if got := reg.Requests().Sub(before)[metrics.PrimGet][core.KeyExtent].N; got != 0 {
				t.Fatalf("steady flush fetched %d extents; the peer's extent was never dirty here", got)
			}
			if got := listNames(t, m1, "/big"); len(got) != 90 {
				t.Fatalf("before the re-split this node sees %d entries, want 90 (none of the peer's)", len(got))
			}
		}
	}
	mustNoErr(t, m1.FlushAll(ctx))
	if got := reg.Counter("dirShard.splits"); got != 2 {
		t.Fatalf("dirShard.splits = %d, want 2 (the flush at 140 live re-splits)", got)
	}
	if got := listNames(t, newMW(t, c, 3, withShardThreshold(8)), "/big"); len(got) != 145 {
		t.Fatalf("stored view after the re-split = %d entries, want 145 (40 + 100 + the peer's 5)", len(got))
	}
}

// TestDescCacheEviction: with a cache cap, cold clean descriptors are
// evicted (and counted), while every directory remains fully usable —
// eviction is invisible except for the reload.
func TestDescCacheEviction(t *testing.T) {
	const limit = 32
	c := newCluster(t)
	reg := metrics.NewRegistry()
	m := newMW(t, c, 1, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.DescCacheLimit = limit
	})
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	const dirs = 120
	// Two waves: eviction runs on insert and only claims clean
	// descriptors, so the first wave is flushed clean before the second
	// wave's inserts push the cache past its limit.
	for i := 0; i < dirs/2; i++ {
		dir := fmt.Sprintf("/d%03d", i)
		mustNoErr(t, fs.Mkdir(ctx, dir))
		mustNoErr(t, fs.WriteFile(ctx, dir+"/f", []byte("x")))
	}
	mustNoErr(t, m.FlushAll(ctx))
	for i := dirs / 2; i < dirs; i++ {
		dir := fmt.Sprintf("/d%03d", i)
		mustNoErr(t, fs.Mkdir(ctx, dir))
		mustNoErr(t, fs.WriteFile(ctx, dir+"/f", []byte("x")))
	}
	mustNoErr(t, m.FlushAll(ctx))
	// Every directory — including evicted ones — still resolves; the
	// reload is the only observable cost.
	for i := 0; i < dirs; i++ {
		if _, err := fs.Stat(ctx, fmt.Sprintf("/d%03d/f", i)); err != nil {
			t.Fatalf("Stat d%03d/f after eviction churn: %v", i, err)
		}
	}
	if got := reg.Counter("descCache.evicted"); got == 0 {
		t.Fatal("no descriptors were evicted under a tight cap")
	}
	// Every ring is clean now, so the limit holds exactly.
	if size := reg.Counter("descCache.size"); size <= 0 || size > limit {
		t.Fatalf("descCache.size = %d, want at most %d", size, limit)
	}
	// Everything still lists correctly through reloads.
	entries, err := fs.List(ctx, "/", false)
	mustNoErr(t, err)
	if len(entries) != dirs {
		t.Fatalf("root List = %d entries, want %d", len(entries), dirs)
	}
}

// TestDirShardThresholdZeroWritesNoManifests: the compatibility contract —
// with the default threshold nothing ever becomes a manifest or extent,
// whatever the directory size.
func TestDirShardThresholdZeroWritesNoManifests(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	populateBig(t, m, 60)
	mustNoErr(t, m.FlushAll(ctx))
	for _, name := range clusterNames(c) {
		if core.KindOf(name) == core.KeyExtent {
			t.Fatalf("extent %q written with sharding disabled", name)
		}
		if core.KindOf(name) == core.KeyRing {
			data, _, err := c.Get(ctx, name)
			mustNoErr(t, err)
			if core.IsShardManifest(data) {
				t.Fatalf("manifest at %q with sharding disabled", name)
			}
		}
	}
}
