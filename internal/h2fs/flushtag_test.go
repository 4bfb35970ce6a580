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
	"sync/atomic"
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
	"github.com/h2cloud/h2cloud/internal/storemw"
)

// reqLog records every request the middleware issues as "OP name", a
// batch slot as its singular op.
type reqLog struct {
	mu   sync.Mutex
	reqs []string
}

// logged wraps s in a storemw.Before hook that notes every request in a
// fresh log; batches still reach s as batches.
func logged(s objstore.Store) (objstore.Store, *reqLog) {
	l := &reqLog{}
	return storemw.Before(l.note)(s), l
}

func (s *reqLog) note(_ context.Context, op storemw.Op, name string, _ []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqs = append(s.reqs, strings.ToUpper(string(op))+" "+name)
	return nil
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
	var store objstore.Store
	store, f.log = logged(f.c)
	cfg := Config{Store: store, Node: 1, Profile: f.c.Profile(), Clock: steppingClock(), EagerGC: true, Metrics: f.reg}
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
		if (op == "PUT" || op == "DELETE") && (name == f.ring || core.KindOf(name) == core.KeyExtent && strings.HasPrefix(name, f.ring)) {
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

// TestFlushSteadyMonolithicIsOnePut: the merger neither downloads nor
// HEADs the ring it wrote last. A steady monolithic flush is one PUT of the
// ring object, conditional on the tag it remembers, and no round is
// refetched.
func TestFlushSteadyMonolithicIsOnePut(t *testing.T) {
	f := newTagFixture(t)
	for i := 0; i < 3; i++ {
		wantOps(t, "steady flush", f.flushOps(t, fmt.Sprintf("g%d", i)), "PUT")
	}
	if r := refetched(f.reg); r != 0 {
		t.Fatalf("refetched = %d, want 0", r)
	}
	if got := f.storedNames(t); len(got) != 4 {
		t.Fatalf("stored view = %v, want f and g0..g2", got)
	}
}

// TestFlushRefetchesPeerRewrittenRing: a peer rewrote the ring between
// two of our flushes, so our put over the remembered tag fails its
// precondition; the ring is fetched, merged and put over the fetched tag,
// and the peer's tuple survives.
func TestFlushRefetchesPeerRewrittenRing(t *testing.T) {
	f := newTagFixture(t)
	ctx := context.Background()
	peer := newMW(t, f.c, 2)
	mustNoErr(t, peer.FS("alice").WriteFile(ctx, "/d/peer", []byte("p")))
	mustNoErr(t, peer.FlushAll(ctx))

	wantOps(t, "flush after a peer's rewrite", f.flushOps(t, "mine"), "PUT", "GET", "PUT")
	if r := refetched(f.reg); r != 1 {
		t.Fatalf("refetched = %d, want 1", r)
	}
	if got, want := f.storedNames(t), []string{"f", "mine", "peer"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("stored view = %v, want %v", got, want)
	}
	// The version put is the one remembered now.
	wantOps(t, "next flush", f.flushOps(t, "again"), "PUT")
}

// TestFlushAfterGossipValidates: an advert makes this node fetch and merge
// the peer's ring, and that fetched version is the one remembered — the
// flush that follows is one PUT over its tag, which the store validates,
// and does not read it a second time.
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

	wantOps(t, "flush after the advert", f.flushOps(t, "mine"), "PUT")
	if got, want := f.storedNames(t), []string{"f", "mine", "peer"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("stored view = %v, want %v", got, want)
	}
}

// TestFlushKeepsPeerWatermarks: a peer may advance the watermarks under the
// very tuples we remember. The ETag of an object with metadata hashes the
// metadata too, so our put over the remembered tag fails its precondition;
// the refetch brings the peer's watermarks, which are re-published — a put
// that trusted its own copy would roll them back.
func TestFlushKeepsPeerWatermarks(t *testing.T) {
	f := newTagFixture(t)
	ctx := context.Background()
	data, info, err := f.c.Get(ctx, f.ring)
	mustNoErr(t, err)
	meta := map[string]string{"wm.2": "7"}
	for k, v := range info.Meta {
		meta[k] = v
	}
	mustNoErr(t, f.c.Put(ctx, f.ring, data, meta)) // same tuples, peer 2 folded seven patches

	wantOps(t, "flush over identical content", f.flushOps(t, "g"), "PUT", "GET", "PUT")
	if r := refetched(f.reg); r != 1 {
		t.Fatalf("refetched = %d, want 1: only the watermarks changed, and the put must notice", r)
	}
	after, err := f.c.Head(ctx, f.ring)
	mustNoErr(t, err)
	if got := after.Meta["wm.2"]; got != "7" {
		t.Fatalf("wm.2 after our flush = %q, want the peer's 7 re-published (meta %v)", got, after.Meta)
	}
	if after.Meta["wm.1"] == info.Meta["wm.1"] {
		t.Fatalf("our own watermark did not advance: %v", after.Meta)
	}
	wantOps(t, "next flush", f.flushOps(t, "h"), "PUT")
	if final, err := f.c.Head(ctx, f.ring); err != nil || final.Meta["wm.2"] != "7" {
		t.Fatalf("wm.2 after the next flush = %q (%v), want 7", final.Meta["wm.2"], err)
	}
}

// TestFlushRaceLosesNoUpdate: m1's flush is paused just before it writes
// the ring while m2 writes to the same directory and flushes. No gossip
// tells m1 about it; the store does: m1's put names the version m1 knew,
// fails its precondition, and m1 reads, merges and puts again. A fresh
// node reads both middlewares' tuples — m1's put did not overwrite m2's.
func TestFlushRaceLosesNoUpdate(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()
	var armed atomic.Bool
	var ring string
	reached, release := make(chan struct{}), make(chan struct{})
	gate := storemw.Before(func(_ context.Context, op storemw.Op, name string, _ []byte) error {
		if op == storemw.OpPut && name == ring && armed.CompareAndSwap(true, false) {
			close(reached)
			<-release
		}
		return nil
	})
	m1 := newMW(t, c, 1, func(cfg *Config) { cfg.Store = gate(cfg.Store) })
	mustNoErr(t, m1.CreateAccount(ctx, "alice"))
	mustNoErr(t, m1.FS("alice").Mkdir(ctx, "/d"))
	mustNoErr(t, m1.FS("alice").WriteFile(ctx, "/d/a", []byte("x")))
	mustNoErr(t, m1.FlushAll(ctx)) // the ring's tag is known from here on
	ns, err := m1.ResolveNS(ctx, "alice", "/d")
	mustNoErr(t, err)
	ring = core.RingKey("alice", ns)
	m2 := newMW(t, c, 2)

	mustNoErr(t, m1.FS("alice").WriteFile(ctx, "/d/mine", []byte("m")))
	armed.Store(true)
	flushed := make(chan error, 1)
	go func() { flushed <- m1.FlushAll(ctx) }()
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("m1's flush never reached its ring put")
	}
	mustNoErr(t, m2.FS("alice").WriteFile(ctx, "/d/peer", []byte("p")))
	mustNoErr(t, m2.FlushAll(ctx))
	close(release)
	mustNoErr(t, <-flushed)

	if got, want := listNames(t, newMW(t, c, 3), "/d"), []string{"a", "mine", "peer"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a fresh node reads %v, want %v: a flush overwrote its peer's", got, want)
	}
}

// TestFlushFailedPutForgetsRingTag: after a failed put of an extent the
// store may hold either version of it, so exactly that extent's tag is
// forgotten — an extent that landed in the same batch is remembered afresh —
// and the retried flush reads it again before it puts over what it read.
// The one extent of a monolithic ring is the object at RingKey. A fault is
// no failed precondition, so no round is refetched.
func TestFlushFailedPutForgetsRingTag(t *testing.T) {
	for _, n := range []int{1, 4} {
		row := struct {
			n     int
			retry []string // what the retried flush asks of the failed extent
		}{n, []string{"GET", "PUT"}}
		t.Run(fmt.Sprintf("n=%d", row.n), func(t *testing.T) {
			eng := chaos.New(chaos.Plan{}, nil)
			f := newTagFixtureN(t, row.n, func(cfg *Config) { cfg.Store = eng.Store(cfg.Store) })
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
			eng.FailOn(storemw.OpPut, doomedKey)
			if err := f.m.FlushAll(ctx); !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("flush with a failing extent put = %v, want the injected fault", err)
			}
			eng.FailOn(storemw.OpPut, "")
			after := extentTagsOf(f.m, f.ns)
			if after[doomed] != "" {
				t.Fatalf("tag of the failed extent still remembered: %q", after[doomed])
			}
			if fine != doomed && (after[fine] == "" || after[fine] == before[fine]) {
				t.Fatalf("tag of the extent that landed = %q (was %q), want a fresh one", after[fine], before[fine])
			}
			f.log.take()
			mustNoErr(t, f.m.FlushAll(ctx))
			reqs := f.log.take()
			for _, r := range reqs {
				if op, name, _ := strings.Cut(r, " "); op == "GET" && core.KindOf(name) == core.KeyExtent && name != doomedKey {
					t.Fatalf("the retry fetched %s; only the forgotten extent is re-read", name)
				}
			}
			var ops []string
			for _, r := range reqs {
				if op, ok := strings.CutSuffix(r, " "+doomedKey); ok {
					ops = append(ops, op)
				}
			}
			wantOps(t, "retry after a failed put", ops, row.retry...)
			if r := refetched(f.reg); r != 0 {
				t.Fatalf("refetched = %d, want 0", r)
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
// the head and of every extent it fetched, so the first flush after a
// reload is as steady as any: one PUT of the object at RingKey.
func TestFlushTagDiesWithDescriptor(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			f := newTagFixtureN(t, n, func(cfg *Config) { cfg.DescCacheLimit = fixtureLimit })
			known := func(tags []string) bool {
				return len(tags) == n && !slices.Contains(tags, "")
			}
			files := 0
			flush := func(what string) {
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
					if op == "GET" && core.KindOf(name) == core.KeyExtent {
						t.Fatalf("%s fetched %s; its tag was known", what, name)
					}
				}
				wantOps(t, what, ops, "PUT")
			}
			// fresh checks that the descriptor is an empty one — new after a
			// restart, the woken stub after an eviction — and what its load
			// relearns.
			fresh := func(step string) {
				t.Helper()
				d := f.m.desc("alice", f.ns)
				if d.loaded || d.headTag != "" || d.tags != nil {
					t.Fatalf("%s: descriptor kept (loaded=%v head tag=%q tags=%v)", step, d.loaded, d.headTag, d.tags)
				}
				listNames(t, f.m, "/d")
				if tags := extentTagsOf(f.m, f.ns); !known(tags) {
					t.Fatalf("%s: reload did not relearn every tag: %q", step, tags)
				}
			}
			if tags := extentTagsOf(f.m, f.ns); !known(tags) {
				t.Fatalf("the fixture's flush did not remember every extent's tag: %q", tags)
			}
			flush("steady flush")

			f.m.Recover()
			fresh("Recover")
			flush("first flush after Recover")
			flush("steady flush")

			pushOut(t, f.m, f.ns)
			fresh("eviction")
			flush("first flush after a clean eviction")
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

// TestFlushAfterMergeBackValidates: the merge-back flip put the ring this
// node encoded, so the steady flush that follows is one PUT over that tag,
// which the store validates; the split in between dropped the extent tags.
func TestFlushAfterMergeBackValidates(t *testing.T) {
	c := newCluster(t)
	store, log := logged(c)
	reg := metrics.NewRegistry()
	cfg := Config{Store: store, Node: 1, Profile: c.Profile(), EagerGC: true, Metrics: reg}
	cfg.Profile.DirShardThreshold = 8
	m, err := New(cfg)
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	names := populateBig(t, m, 40)
	mustNoErr(t, m.FlushAll(ctx)) // split
	ns := bigDirNS(t, m)
	ring := core.RingKey("alice", ns)
	if tags := extentTagsOf(m, ns); len(tags) != 8 || slices.Contains(tags, "") {
		t.Fatalf("after the split the descriptor holds tags %q, want one per extent", tags)
	}
	for _, name := range names[2:] {
		mustNoErr(t, m.FS("alice").Remove(ctx, "/big/"+name))
	}
	mustNoErr(t, m.FlushAll(ctx)) // 2 live < 8/2: merge back
	if got := reg.Counter("dirShard.merges"); got != 1 {
		t.Fatalf("dirShard.merges = %d, want 1", got)
	}
	if tags := extentTagsOf(m, ns); len(tags) != 1 || tags[0] == "" {
		t.Fatalf("after the merge-back the descriptor holds tags %q, want the ring's", tags)
	}
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/big/onemore", []byte("x")))
	log.take()
	mustNoErr(t, m.FlushAll(ctx))
	wantOps(t, "steady flush after the merge-back", log.takeOn(ring), "PUT")
	if r := refetched(reg); r != 0 {
		t.Fatalf("refetched = %d, want 0", r)
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
	if r := refetched(f.reg); r != 0 {
		t.Fatalf("refetched = %d, want 0: the strawman puts over what it just read", r)
	}
}

// TestDifferentialValidatedFlush replays the shared random traces with a
// flush before every read, so nearly every ring is folded many times by a
// put over its remembered tag, which the store validates, with no read;
// the tree must still equal the model's.
func TestDifferentialValidatedFlush(t *testing.T) {
	fstest.RunDifferential(t, func(t *testing.T) fsapi.FileSystem {
		reg := metrics.NewRegistry()
		m := newProbedMW(t, func(cfg *Config) { cfg.Metrics = reg })
		t.Cleanup(func() {
			req := reg.Requests()
			if puts, gets := req[metrics.PrimPut][core.KeyRing].N, req[metrics.PrimGet][core.KeyRing].N; puts <= gets {
				t.Errorf("%d ring PUTs against %d ring GETs: flushes read before they put; the test exercises nothing", puts, gets)
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
					mustNoErr(t, mw.withRing(ctx, "alice", ns, func(r *core.NameRing) { local = core.EncodeNameRing(r) }))
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
	if r := refetched(reg); r == 0 {
		t.Fatal("no flush over all trials failed its precondition: the refetch path is never exercised")
	}
}

// TestFlushAllOutlivesAFailingRing: one ring whose PUT fails must not
// starve the rings that sort after it; every failure is reported, and
// only a cancelled context stops the pass.
func TestFlushAllOutlivesAFailingRing(t *testing.T) {
	c := newCluster(t)
	eng := chaos.New(chaos.Plan{}, nil)
	store, log := logged(eng.Store(c))
	m, err := New(Config{Store: store, Node: 1, Profile: c.Profile(), EagerGC: true})
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

	eng.FailOn(storemw.OpPut, dirty[0].key) // the first in flush order
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

	eng.FailOn(storemw.OpPut, "")
	mustNoErr(t, m.FlushAll(ctx))
	fresh := newMW(t, c, 2)
	for _, d := range dirs {
		if got := listNames(t, fresh, d); len(got) == 0 {
			t.Fatalf("%s empty in the store after the healed pass", d)
		}
	}
}

// TestMaintenanceIsNotAUserAccess: the merger flushes the descriptors it
// snapshotted in place. A pass over clean rings asks nothing of the store
// and leaves the hand and the referenced bits alone, and a descriptor
// dropped since the snapshot is skipped.
func TestMaintenanceIsNotAUserAccess(t *testing.T) {
	c := newCluster(t)
	store, log := logged(c)
	m, err := New(Config{Store: store, Node: 1, Profile: c.Profile(), DescCacheLimit: 64})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	const dirs = 96 // more rings than the cache holds: the hand turns
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
	hand, before := clockOf(m)
	if !slices.ContainsFunc(before, func(s string) bool { return strings.HasSuffix(s, " false") }) {
		t.Fatal("every referenced bit is set; the test exercises nothing")
	}
	log.take()
	m.MaintainOnce(ctx)
	if reqs := log.take(); len(reqs) != 0 {
		t.Fatalf("a maintenance pass over clean rings issued %v", reqs)
	}
	if h, after := clockOf(m); h != hand || !reflect.DeepEqual(after, before) {
		t.Fatalf("a maintenance pass moved the clock:\nbefore %d %v\nafter  %d %v", hand, before, h, after)
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
	if reqs := log.take(); len(reqs) != 0 || cached(m, d.account, d.ns) {
		t.Fatalf("flushing a dropped descriptor issued %v (re-cached: %v)", reqs, cached(m, d.account, d.ns))
	}
}
