package h2fs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/gossip"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// reqLog records every request the middleware issues as "OP name". It
// hides the cluster's Batcher, so batched items arrive here singly.
type reqLog struct {
	objstore.Store
	mu   sync.Mutex
	reqs []string
}

func (s *reqLog) note(op, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqs = append(s.reqs, op+" "+name)
}

func (s *reqLog) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	s.note("PUT", name)
	return s.Store.Put(ctx, name, data, meta)
}

func (s *reqLog) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	s.note("GET", name)
	return s.Store.Get(ctx, name)
}

func (s *reqLog) GetRange(ctx context.Context, name string, offset, length int64) ([]byte, objstore.ObjectInfo, error) {
	s.note("GETRANGE", name)
	return s.Store.GetRange(ctx, name, offset, length)
}

func (s *reqLog) Head(ctx context.Context, name string) (objstore.ObjectInfo, error) {
	s.note("HEAD", name)
	return s.Store.Head(ctx, name)
}

func (s *reqLog) Delete(ctx context.Context, name string) error {
	s.note("DELETE", name)
	return s.Store.Delete(ctx, name)
}

func (s *reqLog) Copy(ctx context.Context, src, dst string) error {
	s.note("COPY", src)
	return s.Store.Copy(ctx, src, dst)
}

// take returns and resets the log.
func (s *reqLog) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	reqs := s.reqs
	s.reqs = nil
	return reqs
}

// takeOn is take narrowed to the requests naming key, as bare ops.
func (s *reqLog) takeOn(key string) []string {
	var ops []string
	for _, r := range s.take() {
		if op, ok := strings.CutSuffix(r, " "+key); ok {
			ops = append(ops, op)
		}
	}
	return ops
}

// takeGets is take narrowed to the GETs, hit or miss, as bare names — a
// patch-chain probe is a GET that ends in ErrNotFound.
func (s *reqLog) takeGets() []string {
	var names []string
	for _, r := range s.take() {
		if name, ok := strings.CutPrefix(r, "GET "); ok {
			names = append(names, name)
		}
	}
	return names
}

// tagFixture is a middleware over a request-logging store with /d flushed:
// its ring layer has been put once, so every tag is remembered. /d holds
// the file f alone and is monolithic, or — newTagFixtureN — enough files
// p00.. beside it to be stored as n extents.
type tagFixture struct {
	c    *cluster.Cluster
	log  *reqLog
	m    *Middleware
	reg  *metrics.Registry
	ns   string
	ring string // RingKey of /d
	lay  core.ShardManifest
	live int // files the fixture left in /d
}

func newTagFixture(t *testing.T, opts ...func(*Config)) *tagFixture {
	t.Helper()
	return newTagFixtureN(t, 1, opts...)
}

// fixtureThreshold is the DirShardThreshold of every fixture over more than
// one extent; fixtureLive(n) live children then split into exactly n.
const fixtureThreshold = 8

func fixtureLive(n int) int { return fixtureThreshold*n - 4 }

func newTagFixtureN(t *testing.T, n int, opts ...func(*Config)) *tagFixture {
	t.Helper()
	f := &tagFixture{c: newCluster(t), reg: metrics.NewRegistry(), lay: core.ShardManifest{Shards: n}, live: 1}
	f.log = &reqLog{Store: f.c}
	cfg := Config{Store: f.log, Node: 1, Profile: f.c.Profile(), EagerGC: true, Metrics: f.reg}
	if n > 1 {
		cfg.Profile.DirShardThreshold = fixtureThreshold
		f.lay.Gen = 1
	}
	for _, o := range opts {
		o(&cfg)
	}
	var err error
	f.m, err = New(cfg)
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, f.m.CreateAccount(ctx, "alice"))
	mustNoErr(t, f.m.FS("alice").Mkdir(ctx, "/d"))
	f.write(t, "f")
	if n > 1 {
		f.live = fixtureLive(n)
		f.grow(t, f.live-1)
	}
	mustNoErr(t, f.m.FlushAll(ctx))
	f.ns, err = f.m.ResolveNS(ctx, "alice", "/d")
	mustNoErr(t, err)
	f.ring = core.RingKey("alice", f.ns)
	if got := f.layout(); got != f.lay {
		t.Fatalf("fixture /d is stored as %+v, want %+v", got, f.lay)
	}
	f.log.take()
	return f
}

// grow writes k more files p<i> into /d, continuing where it left off.
func (f *tagFixture) grow(t *testing.T, k int) {
	t.Helper()
	have := len(listNames(t, f.m, "/d")) - 1
	for i := have; i < have+k; i++ {
		f.write(t, fmt.Sprintf("p%02d", i))
	}
}

// layout is the layout /d's descriptor holds.
func (f *tagFixture) layout() core.ShardManifest {
	d := f.m.lockedDesc("alice", f.ns)
	defer f.m.unlockDesc(d)
	return d.lay
}

// ringWrites narrows a request log to the PUTs and DELETEs of /d's ring
// layer — the object at RingKey and the extents, not the patches.
func (f *tagFixture) ringWrites(reqs []string) []string {
	var out []string
	for _, r := range reqs {
		op, name, _ := strings.Cut(r, " ")
		if (op == "PUT" || op == "DELETE") && (name == f.ring || core.IsExtentKey(name) && strings.HasPrefix(name, f.ring)) {
			out = append(out, r)
		}
	}
	return out
}

func (f *tagFixture) write(t *testing.T, name string) {
	t.Helper()
	mustNoErr(t, f.m.FS("alice").WriteFile(context.Background(), "/d/"+name, []byte("x")))
}

// flushOps writes /d/name, discards the write's own requests, runs the
// merger and returns what it asked of /d's ring object.
func (f *tagFixture) flushOps(t *testing.T, name string) []string {
	t.Helper()
	f.write(t, name)
	f.log.take()
	mustNoErr(t, f.m.FlushAll(context.Background()))
	return f.log.takeOn(f.ring)
}

func wantOps(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s asked %v of the ring object, want %v", what, got, want)
	}
}

// storedNames lists /d as a fresh middleware reads it from the store.
func (f *tagFixture) storedNames(t *testing.T) []string {
	t.Helper()
	return listNames(t, newMW(t, f.c, 9), "/d")
}

// TestFlushSteadyMonolithicValidatesByHead: the merger does not download
// the ring it wrote last. A steady monolithic flush is one HEAD and one
// PUT of the ring object, no GET, and the counters say so.
func TestFlushSteadyMonolithicValidatesByHead(t *testing.T) {
	f := newTagFixture(t)
	for i := 0; i < 3; i++ {
		wantOps(t, "steady flush", f.flushOps(t, fmt.Sprintf("g%d", i)), "HEAD", "PUT")
	}
	if v, r := flushCounters(f.reg); v != 3 || r != 0 {
		t.Fatalf("validated/refetched = %d/%d, want 3/0", v, r)
	}
	if got := f.storedNames(t); len(got) != 4 {
		t.Fatalf("stored view = %v, want f and g0..g2", got)
	}
}

// TestFlushRefetchesPeerRewrittenRing: a peer rewrote the ring between
// two of our flushes, so the HEAD no longer shows the remembered tag; the
// ring is fetched and merged, and the peer's tuple survives our PUT.
func TestFlushRefetchesPeerRewrittenRing(t *testing.T) {
	f := newTagFixture(t)
	ctx := context.Background()
	peer := newMW(t, f.c, 2)
	mustNoErr(t, peer.FS("alice").WriteFile(ctx, "/d/peer", []byte("p")))
	mustNoErr(t, peer.FlushAll(ctx))

	wantOps(t, "flush after a peer's rewrite", f.flushOps(t, "mine"), "HEAD", "GET", "PUT")
	if v, r := flushCounters(f.reg); v != 0 || r != 1 {
		t.Fatalf("validated/refetched = %d/%d, want 0/1", v, r)
	}
	if got, want := f.storedNames(t), []string{"f", "mine", "peer"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("stored view = %v, want %v", got, want)
	}
	// The fetched version is the one remembered now.
	wantOps(t, "next flush", f.flushOps(t, "again"), "HEAD", "PUT")
}

// TestFlushAfterGossipValidates: an advert makes this node fetch and merge
// the peer's ring, and that fetched version is the one remembered — the
// flush that follows does not download it a second time.
func TestFlushAfterGossipValidates(t *testing.T) {
	bus := gossip.NewBus()
	f := newTagFixture(t, func(cfg *Config) { cfg.Gossip = bus })
	ctx := context.Background()
	peer := newMW(t, f.c, 2, func(cfg *Config) { cfg.Gossip = bus })
	mustNoErr(t, peer.FS("alice").WriteFile(ctx, "/d/peer", []byte("p")))
	mustNoErr(t, peer.FlushAll(ctx))
	f.log.take()
	bus.Pump(ctx)
	wantOps(t, "the advert", f.log.takeOn(f.ring), "GET")

	wantOps(t, "flush after the advert", f.flushOps(t, "mine"), "HEAD", "PUT")
	if got, want := f.storedNames(t), []string{"f", "mine", "peer"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("stored view = %v, want %v", got, want)
	}
}

// TestFlushValidatedReadTakesWatermarksFromHead: the ETag hashes content
// only, so a peer may have advanced the watermarks under the very tuples
// we remember. They must come from the HEAD and be re-published — a
// validated flush that trusted its own copy would roll them back.
func TestFlushValidatedReadTakesWatermarksFromHead(t *testing.T) {
	f := newTagFixture(t)
	ctx := context.Background()
	data, info, err := f.c.Get(ctx, f.ring)
	mustNoErr(t, err)
	meta := map[string]string{"wm.2": "7"}
	for k, v := range info.Meta {
		meta[k] = v
	}
	mustNoErr(t, f.c.Put(ctx, f.ring, data, meta)) // same tuples, peer 2 folded seven patches

	wantOps(t, "flush over identical content", f.flushOps(t, "g"), "HEAD", "PUT")
	after, err := f.c.Head(ctx, f.ring)
	mustNoErr(t, err)
	if got := after.Meta["wm.2"]; got != "7" {
		t.Fatalf("wm.2 after our flush = %q, want the peer's 7 re-published (meta %v)", got, after.Meta)
	}
	if after.Meta["wm.1"] == info.Meta["wm.1"] {
		t.Fatalf("our own watermark did not advance: %v", after.Meta)
	}
}

// TestFlushFailedPutForgetsRingTag: after a failed put of an extent the
// store may hold either version of it, so exactly that extent's tag is
// forgotten — an extent that landed in the same batch is remembered afresh —
// and the retried flush reads it again instead of trusting a HEAD. The one
// extent of a monolithic ring is the object at RingKey: with no tag there
// is nothing to HEAD, and the retry is a plain GET and PUT.
func TestFlushFailedPutForgetsRingTag(t *testing.T) {
	for _, row := range []struct {
		n                    int
		retry                []string // what the retried flush asks of the failed extent
		validated, refetched int64    // what the retry adds to the counters
	}{
		{n: 1, retry: []string{"GET", "PUT"}},
		{n: 4, retry: []string{"HEAD", "GET", "PUT"}, validated: 1, refetched: 1},
	} {
		t.Run(fmt.Sprintf("n=%d", row.n), func(t *testing.T) {
			var cs *chaos.Store
			f := newTagFixtureN(t, row.n, func(cfg *Config) {
				cs = chaos.New(chaos.Plan{}, nil).Store(cfg.Store)
				cfg.Store = cs
			})
			ctx := context.Background()
			doomed, fine := 0, row.n-1
			next, wrote := 0, 1
			f.write(t, nameInShard("w", &next, doomed, row.n, true))
			if fine != doomed {
				f.write(t, nameInShard("w", &next, fine, row.n, true))
				wrote++
			}
			before := extentTagsOf(f.m, f.ns)
			doomedKey := f.lay.Key("alice", f.ns, doomed)
			cs.FailOn(chaos.OpPut, doomedKey)
			if err := f.m.FlushAll(ctx); !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("flush with a failing extent put = %v, want the injected fault", err)
			}
			cs.FailOn(chaos.OpPut, "")
			after := extentTagsOf(f.m, f.ns)
			if after[doomed] != "" {
				t.Fatalf("tag of the failed extent still remembered: %q", after[doomed])
			}
			if fine != doomed && (after[fine] == "" || after[fine] == before[fine]) {
				t.Fatalf("tag of the extent that landed = %q (was %q), want a fresh one", after[fine], before[fine])
			}
			v0, r0 := flushCounters(f.reg)
			f.log.take()
			mustNoErr(t, f.m.FlushAll(ctx))
			wantOps(t, "retry after a failed put", f.log.takeOn(doomedKey), row.retry...)
			if v, r := flushCounters(f.reg); v-v0 != row.validated || r-r0 != row.refetched {
				t.Fatalf("retry validated/refetched = %d/%d, want %d/%d (only the forgotten extent is re-read)",
					v-v0, r-r0, row.validated, row.refetched)
			}
			if got, want := len(f.storedNames(t)), f.live+wrote; got != want {
				t.Fatalf("stored view after the retry = %d entries, want %d", got, want)
			}
		})
	}
}

// TestFlushTagDiesWithDescriptor: tags describe a descriptor's local ring,
// so a restart or a clean eviction — which drop that ring — drop them too.
// The replacement descriptor starts with none; its load relearns the tag of
// every extent it had to fetch, and none for a monolithic ring, whose first
// flush after a reload therefore reads in full.
func TestFlushTagDiesWithDescriptor(t *testing.T) {
	for _, row := range []struct {
		n        int
		relearns bool     // the load remembers the tags of what it read
		steady   []string // what a flush with every tag known asks of the object at RingKey
		first    []string // and the first flush after a reload
	}{
		{n: 1, steady: []string{"HEAD", "PUT"}, first: []string{"GET", "PUT"}},
		{n: 4, relearns: true, steady: []string{"GET", "PUT"}, first: []string{"GET", "PUT"}},
	} {
		t.Run(fmt.Sprintf("n=%d", row.n), func(t *testing.T) {
			f := newTagFixtureN(t, row.n, func(cfg *Config) { cfg.DescCacheLimit = descStripes })
			known := func(tags []string) bool {
				return len(tags) == row.n && !slices.Contains(tags, "")
			}
			files := 0
			flush := func(what string, want []string) {
				t.Helper()
				f.write(t, fmt.Sprintf("g%d", files))
				files++
				f.log.take()
				mustNoErr(t, f.m.FlushAll(context.Background()))
				reqs := f.log.take()
				var ops []string
				for _, r := range reqs {
					op, name, _ := strings.Cut(r, " ")
					if name == f.ring {
						ops = append(ops, op)
					}
					if op == "GET" && core.IsExtentKey(name) {
						t.Fatalf("%s fetched %s; its tag was known", what, name)
					}
				}
				wantOps(t, what, ops, want...)
			}
			// fresh checks that the descriptor is a new, empty one, and what
			// its load relearns.
			fresh := func(step string, old *descriptor) *descriptor {
				t.Helper()
				d := f.m.desc("alice", f.ns)
				if d == old || d.loaded || d.tags != nil {
					t.Fatalf("%s: descriptor kept (same=%v loaded=%v tags=%v)", step, d == old, d.loaded, d.tags)
				}
				if tags := extentTagsOf(f.m, f.ns); tags != nil {
					t.Fatalf("%s: unloaded descriptor has tags %v", step, tags)
				}
				listNames(t, f.m, "/d")
				switch tags := extentTagsOf(f.m, f.ns); {
				case row.relearns && !known(tags):
					t.Fatalf("%s: reload did not relearn every tag: %q", step, tags)
				case !row.relearns && len(tags) != 0:
					t.Fatalf("%s: reload remembered %q", step, tags)
				}
				return d
			}
			d0 := f.m.desc("alice", f.ns)
			if tags := extentTagsOf(f.m, f.ns); !known(tags) {
				t.Fatalf("the fixture's flush did not remember every extent's tag: %q", tags)
			}
			flush("steady flush", row.steady)

			f.m.Recover()
			d1 := fresh("Recover", d0)
			flush("first flush after Recover", row.first)
			flush("steady flush", row.steady)

			pushOut(t, f.m, f.ns)
			fresh("eviction", d1)
			flush("first flush after a clean eviction", row.first)
			if got, want := len(f.storedNames(t)), f.live+files; got != want {
				t.Fatalf("stored view = %d entries, want %d", got, want)
			}
		})
	}
}

// TestWriteLayoutOrder pins the order in which a flush writes the ring
// layer, for every kind of write: the extents it rewrites under the target
// layout, then the object at RingKey — the flip, when the layout changes —
// and only then the deletes of the layout it left. For a monolithic target
// the first two are one put. The re-split goes 4 -> 16 because growth past
// the hysteresis band always skips a power of two.
func TestWriteLayoutOrder(t *testing.T) {
	rm := func(t *testing.T, f *tagFixture, keep int) {
		t.Helper()
		names := listNames(t, f.m, "/d")
		for _, name := range names[keep:] {
			mustNoErr(t, f.m.FS("alice").Remove(context.Background(), "/d/"+name))
		}
	}
	for _, row := range []struct {
		name   string
		from   int
		to     core.ShardManifest
		mutate func(t *testing.T, f *tagFixture) []int // returns the extents of to the flush must put
	}{
		{"steady n=1", 1, core.ShardManifest{Shards: 1}, func(t *testing.T, f *tagFixture) []int {
			f.write(t, "g")
			return []int{0}
		}},
		{"steady n=4", 4, core.ShardManifest{Shards: 4, Gen: 1}, func(t *testing.T, f *tagFixture) []int {
			next := 0
			f.write(t, nameInShard("g", &next, 2, 4, true))
			return []int{2}
		}},
		{"split 1 -> 4", 1, core.ShardManifest{Shards: 4, Gen: 1}, func(t *testing.T, f *tagFixture) []int {
			f.grow(t, fixtureLive(4)-1)
			return core.ShardManifest{Shards: 4}.All()
		}},
		{"re-split 4 -> 16", 4, core.ShardManifest{Shards: 16, Gen: 2}, func(t *testing.T, f *tagFixture) []int {
			f.grow(t, 2*fixtureThreshold*4+1-fixtureLive(4))
			return core.ShardManifest{Shards: 16}.All()
		}},
		{"merge-back 4 -> 1", 4, core.ShardManifest{Shards: 1, Gen: 2}, func(t *testing.T, f *tagFixture) []int {
			rm(t, f, fixtureThreshold/2-1)
			return []int{0}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			f := newTagFixtureN(t, row.from, withShardThreshold(fixtureThreshold))
			from := f.lay
			which := row.mutate(t, f)
			f.log.take()
			mustNoErr(t, f.m.FlushAll(context.Background()))
			got := f.ringWrites(f.log.take())
			if lay := f.layout(); lay != row.to {
				t.Fatalf("flushed into %+v, want %+v", lay, row.to)
			}
			var want []string
			for _, key := range row.to.Keys("alice", f.ns, which) {
				if key != f.ring {
					want = append(want, "PUT "+key)
				}
			}
			want = append(want, "PUT "+f.ring)
			if row.to != from {
				for _, key := range from.Extents("alice", f.ns) {
					want = append(want, "DELETE "+key)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ring-layer writes, in order:\n got  %v\n want %v", got, want)
			}
		})
	}
}

// TestFlushCompactionAfterValidatedRead: tombstone compaction over a
// validated read writes the same bytes it writes over a full read, and a
// flush that compaction alone dirties never asks for an extent — the
// validated ring covers the whole stored state.
func TestFlushCompactionAfterValidatedRead(t *testing.T) {
	run := func(validate bool) ([]byte, *tagFixture) {
		now := time.Unix(1_700_000_000, 0)
		f := newTagFixture(t, func(cfg *Config) {
			cfg.Clock = func() time.Time { now = now.Add(time.Second); return now }
			cfg.TombstoneTTL = time.Hour
		})
		ctx := context.Background()
		flush := func() {
			if !validate {
				forgetTags(f.m)
			}
			mustNoErr(t, f.m.FlushAll(ctx))
		}
		f.write(t, "g")
		mustNoErr(t, f.m.FS("alice").Remove(ctx, "/d/f"))
		flush() // the tombstone of f is stored
		now = now.Add(2 * time.Hour)
		// A patch that changes nothing: the chain is not empty, so the
		// flush runs, but only compaction dirties a name.
		tup, ok, err := f.m.lookupChild(ctx, "alice", f.ns, "g")
		mustNoErr(t, err)
		if !ok {
			t.Fatal("g missing")
		}
		mustNoErr(t, f.m.submitPatch(ctx, "alice", f.ns, tup))
		f.log.take()
		flush()
		for _, r := range f.log.take() {
			if _, name, _ := strings.Cut(r, " "); core.IsExtentKey(name) {
				t.Fatalf("monolithic flush asked for an extent: %s", r)
			}
		}
		data, _, err := f.c.Get(ctx, f.ring)
		mustNoErr(t, err)
		ring, err := core.DecodeNameRing(data)
		mustNoErr(t, err)
		if _, ok := ring.Get("f"); ok || ring.TotalLen() != 1 {
			t.Fatalf("expired tombstone not compacted: %d tuples stored", ring.TotalLen())
		}
		return data, f
	}
	full, _ := run(false)
	validated, f := run(true)
	if !bytes.Equal(full, validated) {
		t.Fatalf("compaction after a validated read wrote %d bytes, after a full read %d: they differ", len(validated), len(full))
	}
	if v, _ := flushCounters(f.reg); v != 2 {
		t.Fatalf("flush.validated = %d, want 2 (both flushes of the validated run)", v)
	}
}

// forgetTags makes every cached descriptor's next flush read in full.
func forgetTags(m *Middleware) {
	forget := func(d *descriptor) {
		d.mu.Lock()
		defer d.mu.Unlock()
		clear(d.tags)
	}
	for _, d := range m.cachedDescs() {
		forget(d)
	}
}

// TestFlushAfterMergeBackValidates: the merge-back flip put the ring this
// node encoded, so the steady flush that follows validates against that
// tag; the split in between dropped the monolithic one.
func TestFlushAfterMergeBackValidates(t *testing.T) {
	c := newCluster(t)
	log := &reqLog{Store: c}
	reg := metrics.NewRegistry()
	cfg := Config{Store: log, Node: 1, Profile: c.Profile(), EagerGC: true, Metrics: reg}
	cfg.Profile.DirShardThreshold = 8
	m, err := New(cfg)
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	names := populateBig(t, m, 40)
	mustNoErr(t, m.FlushAll(ctx)) // split
	ns := bigDirNS(t, m)
	ring := core.RingKey("alice", ns)
	if tags := extentTagsOf(m, ns); len(tags) != 8 {
		t.Fatalf("after the split the descriptor holds %d tags, want one per extent", len(tags))
	}
	for _, name := range names[2:] {
		mustNoErr(t, m.FS("alice").Remove(ctx, "/big/"+name))
	}
	mustNoErr(t, m.FlushAll(ctx)) // 2 live < 8/2: merge back
	if got := reg.Counter("dirShard.merges"); got != 1 {
		t.Fatalf("dirShard.merges = %d, want 1", got)
	}
	v0, r0 := flushCounters(reg)
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/big/onemore", []byte("x")))
	log.take()
	mustNoErr(t, m.FlushAll(ctx))
	wantOps(t, "steady flush after the merge-back", log.takeOn(ring), "HEAD", "PUT")
	if v, r := flushCounters(reg); v-v0 != 1 || r != r0 {
		t.Fatalf("validated/refetched moved by %d/%d, want 1/0", v-v0, r-r0)
	}
	if got := listNames(t, newMW(t, c, 2, withShardThreshold(8)), "/big"); len(got) != 3 {
		t.Fatalf("stored view = %v, want 3 entries", got)
	}
}

// TestSyncProtocolAlwaysGets pins the strawman (§3.3.1): it is the naive
// GET-merge-PUT inside the operation, never a validated flush — which is
// what results/ablation-syncproto.csv measures.
func TestSyncProtocolAlwaysGets(t *testing.T) {
	f := newTagFixture(t, func(cfg *Config) { cfg.SyncProtocol = true })
	for i := 0; i < 3; i++ {
		f.write(t, fmt.Sprintf("g%d", i))
		wantOps(t, "synchronous write", f.log.takeOn(f.ring), "GET", "PUT")
	}
	if v, r := flushCounters(f.reg); v != 0 || r != 0 {
		t.Fatalf("validated/refetched = %d/%d, want 0/0: the strawman trusts no tag", v, r)
	}
}

// TestDifferentialValidatedFlush replays the shared random traces with a
// flush before every read, so nearly every ring is folded through the
// validated path many times; the tree must still equal the model's.
func TestDifferentialValidatedFlush(t *testing.T) {
	fstest.RunDifferential(t, func(t *testing.T) fsapi.FileSystem {
		reg := metrics.NewRegistry()
		m := newMW(t, newCluster(t), 1, func(cfg *Config) { cfg.Metrics = reg })
		mustNoErr(t, m.CreateAccount(context.Background(), "alice"))
		t.Cleanup(func() {
			if v, _ := flushCounters(reg); v == 0 {
				t.Error("the trace never validated a flush; the test exercises nothing")
			}
		})
		return flushOnRead{m.FS("alice")}
	})
}

// TestFlushTagGossipConvergence: three middlewares write, remove, flush
// and gossip in random interleavings over shared monolithic directories.
// Flushes validate when nobody else wrote and refetch when a peer did;
// after quiescence every node's ring and the stored object are
// byte-identical.
func TestFlushTagGossipConvergence(t *testing.T) {
	reg := metrics.NewRegistry()
	for trial := 0; trial < 6; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			c := newCluster(t)
			bus := gossip.NewBus()
			ctx := context.Background()
			mws := make([]*Middleware, 3)
			for i := range mws {
				mws[i] = newMW(t, c, i+1, func(cfg *Config) { cfg.Gossip, cfg.Metrics = bus, reg })
			}
			mustNoErr(t, mws[0].CreateAccount(ctx, "alice"))
			dirs := []string{"/d0", "/d1"}
			for _, d := range dirs {
				mustNoErr(t, mws[0].FS("alice").Mkdir(ctx, d))
			}
			mustNoErr(t, mws[0].FlushAll(ctx))
			bus.Pump(ctx)

			var live []string
			for step := 0; step < 80; step++ {
				mw := mws[rng.Intn(len(mws))]
				fs := mw.FS("alice")
				switch rng.Intn(6) {
				case 0, 1, 2:
					p := fmt.Sprintf("%s/f%03d", dirs[rng.Intn(len(dirs))], step)
					mustNoErr(t, fs.WriteFile(ctx, p, []byte("x")))
					live = append(live, p)
				case 3:
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					if _, err := fs.Stat(ctx, live[i]); err == nil { // only what this node already sees
						mustNoErr(t, fs.Remove(ctx, live[i]))
						live = append(live[:i], live[i+1:]...)
					}
				case 4:
					mustNoErr(t, mw.FlushAll(ctx))
				case 5:
					bus.Pump(ctx)
				}
			}
			for round := 0; round < 8; round++ {
				for _, mw := range mws {
					mustNoErr(t, mw.FlushAll(ctx))
				}
				if bus.Pump(ctx) == 0 && round > 0 {
					break
				}
			}

			total := 0
			for _, d := range dirs {
				ns, err := mws[0].ResolveNS(ctx, "alice", d)
				mustNoErr(t, err)
				stored, _, err := c.Get(ctx, core.RingKey("alice", ns))
				mustNoErr(t, err)
				for _, mw := range mws {
					var local []byte
					mustNoErr(t, mw.withRing(ctx, "alice", ns, func(r *core.NameRing) error {
						local = core.EncodeNameRing(r)
						return nil
					}))
					if !bytes.Equal(local, stored) {
						t.Fatalf("node %d's ring of %s differs from the stored object after quiescence", mw.Node(), d)
					}
				}
				total += len(listNames(t, mws[2], d))
			}
			if total != len(live) {
				t.Fatalf("converged to %d files, the model has %d", total, len(live))
			}
		})
	}
	if v, r := flushCounters(reg); v == 0 || r == 0 {
		t.Fatalf("validated/refetched = %d/%d over all trials: both paths must be exercised", v, r)
	}
}

// TestFlushAllOutlivesAFailingRing: one ring whose PUT fails must not
// starve the rings that sort after it; every failure is reported, and
// only a cancelled context stops the pass.
func TestFlushAllOutlivesAFailingRing(t *testing.T) {
	c := newCluster(t)
	cs := chaos.New(chaos.Plan{}, nil).Store(c)
	log := &reqLog{Store: cs}
	m, err := New(Config{Store: log, Node: 1, Profile: c.Profile(), EagerGC: true})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	dirs := []string{"/a", "/b", "/c"}
	for _, d := range dirs {
		mustNoErr(t, fs.Mkdir(ctx, d))
	}
	mustNoErr(t, m.FlushAll(ctx))
	for _, d := range dirs {
		mustNoErr(t, fs.WriteFile(ctx, d+"/f", []byte("x")))
	}
	var dirty []*descriptor
	for _, d := range m.cachedDescs() {
		if !d.clean() {
			dirty = append(dirty, d)
		}
	}
	if len(dirty) != 3 {
		t.Fatalf("%d dirty rings, want 3", len(dirty))
	}

	cs.FailOn(chaos.OpPut, dirty[0].key) // the first in flush order
	log.take()
	err = m.FlushAll(ctx)
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("FlushAll = %v, want the injected fault reported", err)
	}
	for _, d := range dirty[1:] {
		if !d.clean() {
			t.Fatalf("ring %s was starved by the failing ring before it", d.key)
		}
	}
	if dirty[0].clean() {
		t.Fatal("the failing ring reports clean")
	}

	// A cancelled pass stops at the first ring it cannot flush.
	for _, d := range dirs[1:] {
		mustNoErr(t, fs.WriteFile(ctx, d+"/g", []byte("x")))
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	log.take()
	if err := m.FlushAll(cancelled); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("cancelled FlushAll = %v", err)
	}
	for _, r := range log.take() {
		if r == "PUT "+dirty[1].key || r == "PUT "+dirty[2].key {
			t.Fatalf("cancelled pass went on past its first failure: %s", r)
		}
	}

	cs.FailOn(chaos.OpPut, "")
	mustNoErr(t, m.FlushAll(ctx))
	fresh := newMW(t, c, 2)
	for _, d := range dirs {
		if got := listNames(t, fresh, d); len(got) == 0 {
			t.Fatalf("%s empty in the store after the healed pass", d)
		}
	}
}

// recency lists every stripe's descriptors coldest first.
func recency(m *Middleware) [][]string {
	order := func(st *descStripe) []string {
		st.mu.Lock()
		defer st.mu.Unlock()
		var keys []string
		for d := st.cold; d != nil; d = d.hotter {
			keys = append(keys, d.key)
		}
		return keys
	}
	out := make([][]string, len(m.stripes))
	for i := range m.stripes {
		out[i] = order(&m.stripes[i])
	}
	return out
}

// TestMaintenanceIsNotAUserAccess: the merger flushes the descriptors it
// snapshotted in place. A pass over clean rings asks nothing of the store
// and leaves the eviction order alone, and a descriptor dropped since the
// snapshot is skipped.
func TestMaintenanceIsNotAUserAccess(t *testing.T) {
	c := newCluster(t)
	log := &reqLog{Store: c}
	m, err := New(Config{Store: log, Node: 1, Profile: c.Profile(), DescCacheLimit: 8 * descStripes})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	const dirs = 96 // three rings a stripe on average
	for i := 0; i < dirs; i++ {
		mustNoErr(t, fs.Mkdir(ctx, fmt.Sprintf("/d%02d", i)))
	}
	mustNoErr(t, m.FlushAll(ctx))
	// Use the rings in an order that is not their key order.
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(dirs) {
		_, err := fs.List(ctx, fmt.Sprintf("/d%02d", i), false)
		mustNoErr(t, err)
	}
	before := recency(m)
	shared := 0
	for _, keys := range before {
		if len(keys) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no stripe holds two descriptors; the test exercises nothing")
	}
	log.take()
	m.MaintainOnce(ctx)
	if reqs := log.take(); len(reqs) != 0 {
		t.Fatalf("a maintenance pass over clean rings issued %v", reqs)
	}
	if after := recency(m); !reflect.DeepEqual(after, before) {
		t.Fatalf("a maintenance pass reordered the eviction lists:\nbefore %v\nafter  %v", before, after)
	}

	// A descriptor dropped since the snapshot — here by a restart, with
	// unflushed state that died with the process — is skipped: flushing it
	// would write what the crash lost, re-creating it would load for nothing.
	mustNoErr(t, fs.WriteFile(ctx, "/d00/f", []byte("x")))
	ns, err := m.ResolveNS(ctx, "alice", "/d00")
	mustNoErr(t, err)
	d := m.desc("alice", ns)
	m.Recover()
	log.take()
	mustNoErr(t, m.flushCached(ctx, d))
	if reqs := log.take(); len(reqs) != 0 || cached(m, d.key) {
		t.Fatalf("flushing a dropped descriptor issued %v (re-cached: %v)", reqs, cached(m, d.key))
	}
}
