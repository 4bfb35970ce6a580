package h2fs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
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

// ringBytesStore counts the bytes put to ring-layer objects (rings,
// manifests, extents — not patches), the write-amplification metric the
// sharding exists to cut, and records the ring-layer objects fetched, the
// read amplification the tag protocol cuts. It hides the cluster's
// Batcher, so every batched item arrives here singly.
type ringBytesStore struct {
	objstore.Store
	mu      sync.Mutex
	bytes   int64
	read    int64
	fetched []string
}

func ringLayer(name string) bool {
	return strings.HasSuffix(name, "::/NameRing/") || core.IsExtentKey(name)
}

func (s *ringBytesStore) notePut(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytes += int64(n)
}

func (s *ringBytesStore) noteGet(name string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.read += int64(n)
	s.fetched = append(s.fetched, name)
}

func (s *ringBytesStore) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	if ringLayer(name) {
		s.notePut(len(data))
	}
	return s.Store.Put(ctx, name, data, meta)
}

func (s *ringBytesStore) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	data, info, err := s.Store.Get(ctx, name)
	if ringLayer(name) && err == nil {
		s.noteGet(name, len(data))
	}
	return data, info, err
}

// take returns and resets the put-byte tally; takeReads does the same for
// the fetched ring-layer objects and their bytes.
func (s *ringBytesStore) take() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bytes
	s.bytes = 0
	return b
}

func (s *ringBytesStore) takeReads() ([]string, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names, b := s.fetched, s.read
	s.fetched, s.read = nil, 0
	return names, b
}

// TestDirShardSteadyFlushWriteAmplification: once sharded, a one-child
// patch flush rewrites O(m/shards) ring bytes, not O(m). The monolithic
// control run pins the baseline the sharded run must beat by >= 4x.
func TestDirShardSteadyFlushWriteAmplification(t *testing.T) {
	ctx := context.Background()
	perPatchRingBytes := func(threshold int) int64 {
		c := newCluster(t)
		rbs := &ringBytesStore{Store: c}
		cfg := Config{Store: rbs, Node: 1, Profile: c.Profile(), EagerGC: true}
		cfg.Profile.DirShardThreshold = threshold
		m, err := New(cfg)
		mustNoErr(t, err)
		mustNoErr(t, m.CreateAccount(ctx, "alice"))
		populateBig(t, m, 256)
		mustNoErr(t, m.FlushAll(ctx))
		rbs.take() // discard population and split cost
		mustNoErr(t, m.FS("alice").WriteFile(ctx, "/big/onemore", []byte("x")))
		mustNoErr(t, m.FlushAll(ctx))
		return rbs.take()
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

// flipFailStore injects a crash exactly between the extent writes and the
// manifest flip: every manifest put fails while armed.
type flipFailStore struct {
	objstore.Store
	mu    sync.Mutex
	armed bool
	hits  int
}

func (s *flipFailStore) arm(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = on
}

func (s *flipFailStore) shouldFail(data []byte) bool {
	if !core.IsShardManifest(data) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.armed {
		s.hits++
	}
	return s.armed
}

func (s *flipFailStore) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	if s.shouldFail(data) {
		return fmt.Errorf("flip injected: %w", objstore.ErrNodeDown)
	}
	return s.Store.Put(ctx, name, data, meta)
}

// TestDirShardCrashMidSplitConverges: a crash after the new extents are
// written but before the manifest flip leaves the monolithic ring intact
// and the half-split extents unreferenced. Replay converges (the patch
// chain still holds every update), Scrub reclaims the abandoned extents,
// and the retried flush completes the split with zero orphans.
func TestDirShardCrashMidSplitConverges(t *testing.T) {
	c := newCluster(t)
	ffs := &flipFailStore{Store: c}
	cfg := Config{Store: ffs, Node: 1, Profile: c.Profile(), EagerGC: true}
	cfg.Profile.DirShardThreshold = 8
	m, err := New(cfg)
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	populateBig(t, m, 40)

	ffs.arm(true)
	if err := m.FlushAll(ctx); err == nil {
		t.Fatal("flush during flip failure succeeded")
	}
	ffs.arm(false)
	if ffs.hits == 0 {
		t.Fatal("flip fault never fired")
	}

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
		if !core.IsExtentKey(o) {
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

	cs := chaos.New(chaos.Plan{}, nil).Store(c)
	cs.FailOn(chaos.OpGet, rr.Extents[3])
	if _, err := ReadRing(ctx, cs, "alice", ns); !errors.Is(err, chaos.ErrInjected) {
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

// flushCounters reads the tag protocol's hit/miss counters.
func flushCounters(reg *metrics.Registry) (validated, refetched int64) {
	return reg.Counter("flush.validated"), reg.Counter("flush.refetched")
}

// extentTagsOf snapshots a directory descriptor's remembered tags.
func extentTagsOf(m *Middleware, ns string) []string {
	d := m.lockedDesc("alice", ns)
	defer m.unlockDesc(d)
	return append([]string(nil), d.tags...)
}

// TestDirShardFlushFetchesPeerRewrittenExtent: a peer rewrites an extent
// between two of our flushes. Our HEAD no longer matches the remembered
// tag, so exactly that extent is fetched and merged before it is written
// back; the extent we alone touch is validated by HEAD. No tuple of
// either node is lost.
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
	mustNoErr(t, m1.FlushAll(ctx))
	if v, r := flushCounters(reg); v != 1 || r != 1 {
		t.Fatalf("validated/refetched = %d/%d, want 1/1 (extent %d untouched by the peer, extent %d rewritten)", v, r, own, shared)
	}
	if got := listNames(t, m1, "/big"); len(got) != 43 {
		t.Fatalf("our view after the merge = %d entries, want 43", len(got))
	}
	if got := listNames(t, newMW(t, c, 3, withShardThreshold(8)), "/big"); len(got) != 43 {
		t.Fatalf("stored view = %d entries, want 43 (40 + peer's 1 + our 2)", len(got))
	}
}

// TestDirShardSteadyFlushReadsOnlyManifest: a single writer's steady
// flush validates its dirty extent by HEAD and fetches nothing but the
// manifest — read amplification is O(1), not O(m).
func TestDirShardSteadyFlushReadsOnlyManifest(t *testing.T) {
	c := newCluster(t)
	rbs := &ringBytesStore{Store: c}
	reg := metrics.NewRegistry()
	cfg := Config{Store: rbs, Node: 1, Profile: c.Profile(), EagerGC: true, Metrics: reg}
	cfg.Profile.DirShardThreshold = 16
	m, err := New(cfg)
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	populateBig(t, m, 256)
	mustNoErr(t, m.FlushAll(ctx))
	ns := bigDirNS(t, m)
	rbs.takeReads()
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/big/onemore", []byte("x")))
	mustNoErr(t, m.FlushAll(ctx))
	fetched, n := rbs.takeReads()
	if len(fetched) != 1 || fetched[0] != core.RingKey("alice", ns) || n > 64 {
		t.Fatalf("steady flush fetched %v (%d bytes), want the manifest alone", fetched, n)
	}
	if v, r := flushCounters(reg); v != 1 || r != 0 {
		t.Fatalf("validated/refetched = %d/%d, want 1/0", v, r)
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
			mustNoErr(t, m1.FlushAll(ctx))
			if _, r := flushCounters(reg); r != 0 {
				t.Fatalf("steady flush refetched %d extents; the peer's extent was never dirty here", r)
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

// TestDirShardCompactionValidatesLate: tombstone compaction can dirty an
// extent after the flush has done its read. That extent is validated
// before it is written too — here a peer rewrote it meanwhile, and its
// tuple must survive our rewrite.
func TestDirShardCompactionValidatesLate(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()
	m0 := newMW(t, c, 1, withShardThreshold(8))
	mustNoErr(t, m0.CreateAccount(ctx, "alice"))
	names := populateBig(t, m0, 40)
	mustNoErr(t, m0.FlushAll(ctx))
	tombed := core.ShardOf(names[0], 8)
	mustNoErr(t, m0.FS("alice").Remove(ctx, "/big/"+names[0]))
	mustNoErr(t, m0.FlushAll(ctx)) // the tombstone is now stored in its extent

	reg := metrics.NewRegistry()
	m1 := newMW(t, c, 2, withShardThreshold(8), func(cfg *Config) {
		cfg.Metrics = reg
		cfg.TombstoneTTL = time.Nanosecond
	})
	listNames(t, m1, "/big") // loads the tombstone, clean

	next := 0
	mustNoErr(t, m0.FS("alice").WriteFile(ctx, "/big/"+nameInShard("peer", &next, tombed, 8, true), []byte("p")))
	mustNoErr(t, m0.FlushAll(ctx))

	mustNoErr(t, m1.FS("alice").WriteFile(ctx, "/big/"+nameInShard("mine", &next, tombed, 8, false), []byte("m")))
	mustNoErr(t, m1.FlushAll(ctx))
	if v, r := flushCounters(reg); v != 1 || r != 1 {
		t.Fatalf("validated/refetched = %d/%d, want 1/1 (our extent by HEAD, the compacted one re-read)", v, r)
	}
	if got := listNames(t, newMW(t, c, 3, withShardThreshold(8)), "/big"); len(got) != 41 {
		t.Fatalf("stored view = %d entries, want 41 (39 + the peer's 1 + our 1)", len(got))
	}
}

// TestDescCacheEviction: with a cache cap, cold clean descriptors are
// evicted (and counted), while every directory remains fully usable —
// eviction is invisible except for the reload.
func TestDescCacheEviction(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	m := newMW(t, c, 1, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.DescCacheLimit = descStripes // one descriptor per stripe
	})
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	const dirs = 120
	// Two waves: eviction runs on insert and only claims clean
	// descriptors, so the first wave is flushed clean before the second
	// wave's inserts push stripes past their budget.
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
	size := reg.Counter("descCache.size")
	if size <= 0 || size > 2*descStripes {
		t.Fatalf("descCache.size = %d, want within ~cap %d", size, descStripes)
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
		if core.IsExtentKey(name) {
			t.Fatalf("extent %q written with sharding disabled", name)
		}
		if strings.HasSuffix(name, "::/NameRing/") {
			data, _, err := c.Get(ctx, name)
			mustNoErr(t, err)
			if core.IsShardManifest(data) {
				t.Fatalf("manifest at %q with sharding disabled", name)
			}
		}
	}
}
