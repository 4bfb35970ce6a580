package h2fs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/storemw"
	"github.com/h2cloud/h2cloud/internal/workload"
)

// fixtureLimit is the cache cap of the fixtures that evict on purpose:
// room for alice's root ring and the /d ring a test watches.
const fixtureLimit = 2

// pushOut evicts ns's descriptor the way production does: every other
// resident is marked referenced and decoys are inserted until the hand
// releases ns. The decoys are dropped again.
func pushOut(t *testing.T, m *Middleware, ns string) {
	t.Helper()
	c := &m.descs
	spare := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, d := range c.clock {
			d.referenced.Store(d.ns != ns)
		}
	}
	var decoys []string
	for i := 0; cached(m, "alice", ns); i++ {
		if i > c.limit {
			t.Fatalf("descriptor of %s survived the push (not clean?)", ns)
		}
		spare()
		decoys = append(decoys, fmt.Sprintf("decoy%d", i))
		m.desc("alice", decoys[i])
	}
	for _, decoy := range decoys {
		m.dropDesc("alice", decoy)
	}
}

// cached reports whether the ring's descriptor is resident.
func cached(m *Middleware, account, ns string) bool {
	c := &m.descs
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.find(account, ns, core.RingHash(account, ns))
	return d != nil && d.resident.Load()
}

// stubs counts the stubs actually held, for comparison with the
// descCache.settled gauge.
func stubs(m *Middleware) int64 {
	c := &m.descs
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	c.each(func(d *descriptor) {
		if !d.resident.Load() {
			n++
		}
	})
	return n
}

func wantGauge(t *testing.T, m *Middleware, reg *metrics.Registry, want int64) {
	t.Helper()
	if got, held := reg.Counter("descCache.settled"), stubs(m); got != want || held != want {
		t.Fatalf("descCache.settled = %d with %d stubs held, want %d", got, held, want)
	}
}

// hasChild consults ns's ring directly (no path walk), loading it if its
// descriptor is not cached.
func hasChild(t *testing.T, m *Middleware, ns, name string) bool {
	t.Helper()
	tup, ok, err := m.lookupChild(context.Background(), "alice", ns, name)
	mustNoErr(t, err)
	return ok && !tup.Deleted
}

// steppingClock reads one millisecond later at every call, so the
// namespaces a fixture mints are the same on every run.
func steppingClock() func() time.Time {
	var ms atomic.Int64
	return func() time.Time { return time.UnixMilli(1_700_000_000_000 + ms.Add(1)) }
}

// newDirD returns a middleware over a request-logging cluster with /d
// holding the flushed file f, and /d's namespace.
func newDirD(t *testing.T, reg *metrics.Registry) (*Middleware, *reqLog, string) {
	t.Helper()
	store, gl := logged(newCluster(t))
	m, err := New(Config{Store: store, Node: 1, Clock: steppingClock(), DescCacheLimit: fixtureLimit, Metrics: reg})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	mustNoErr(t, m.FS("alice").Mkdir(ctx, "/d"))
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/d/f", []byte("x")))
	mustNoErr(t, m.FlushAll(ctx))
	ns, err := m.ResolveNS(ctx, "alice", "/d")
	mustNoErr(t, err)
	return m, gl, ns
}

// TestReloadAfterCleanEvictionIsOneGet: the first load of a ring in a
// process epoch probes this node's own patch chain; a reload after a clean
// eviction is the ring GET and nothing else, and says so in the counters.
func TestReloadAfterCleanEvictionIsOneGet(t *testing.T) {
	reg := metrics.NewRegistry()
	m, gl, ns := newDirD(t, reg)
	ring, probe := core.RingKey("alice", ns), core.PatchKey("alice", ns, 1, 2)

	m.Recover()
	gl.take()
	if !hasChild(t, m, ns, "f") {
		t.Fatal("f lost")
	}
	if got := gl.takeGets(); !reflect.DeepEqual(got, []string{ring, probe}) {
		t.Fatalf("first load in an epoch issued %q, want the ring GET and one own-chain probe", got)
	}
	wantGauge(t, m, reg, 0)

	for round := int64(1); round <= 2; round++ {
		pushOut(t, m, ns)
		wantGauge(t, m, reg, 1)
		if !hasChild(t, m, ns, "f") {
			t.Fatal("f lost")
		}
		if got := gl.takeGets(); !reflect.DeepEqual(got, []string{ring}) {
			t.Fatalf("reload %d after a clean eviction issued %q, want the ring GET alone", round, got)
		}
		wantGauge(t, m, reg, 0)
		if got := reg.Counter("descCache.probes.skipped"); got != round {
			t.Fatalf("descCache.probes.skipped = %d, want %d", got, round)
		}
	}

	// A settled descriptor writes and flushes like any other, and the next
	// incarnation of the process finds everything it acknowledged.
	ctx := context.Background()
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/d/g", []byte("y")))
	mustNoErr(t, m.FlushAll(ctx))
	pushOut(t, m, ns)
	m.dropDesc("alice", ns) // a collected ring takes its stub along
	wantGauge(t, m, reg, 0)
	fresh, err := New(Config{Store: m.Store(), Node: 2})
	mustNoErr(t, err)
	if !hasChild(t, fresh, ns, "f") || !hasChild(t, fresh, ns, "g") {
		t.Fatal("a fresh middleware does not see what the settled descriptor flushed")
	}
}

// TestStubsAreBounded: the table holds at most stubLimit stubs. Reaching
// it forgets them wholesale — forgetting a stub only costs a probe — and
// the gauge follows.
func TestStubsAreBounded(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newMW(t, newCluster(t), 1, func(cfg *Config) {
		cfg.DescCacheLimit = 1
		cfg.Metrics = reg
	})
	loaded := func(ns string) { // each one releases the one before it
		d := m.lockedDesc("alice", ns)
		defer m.unlockDesc(d)
		d.loaded = true
	}
	for i := 0; i <= stubLimit; i++ {
		loaded(strconv.Itoa(i))
	}
	wantGauge(t, m, reg, stubLimit)
	loaded("one more")
	wantGauge(t, m, reg, 1)
	if got := reg.Counter("descCache.size"); got != 1 {
		t.Fatalf("descCache.size = %d, want 1", got)
	}
}

// TestRecoverForgetsStubs: Recover starts a new process epoch, and nothing
// remembered from the old one may suppress a crash replay.
func TestRecoverForgetsStubs(t *testing.T) {
	reg := metrics.NewRegistry()
	m, _, ns := newDirD(t, reg)
	ctx := context.Background()

	// A descriptor re-created over a stub takes a write and dies unflushed.
	pushOut(t, m, ns)
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/d/g", []byte("y")))
	m.Recover()
	wantGauge(t, m, reg, 0)
	if !hasChild(t, m, ns, "g") {
		t.Fatal("unflushed patch of a settled descriptor not replayed after Recover")
	}
	mustNoErr(t, m.FlushAll(ctx))

	// The stub itself outlives nothing: another incarnation of node 1 (the
	// process this one is the restart of) left a patch behind while the
	// ring sat evicted here.
	pushOut(t, m, ns)
	wantGauge(t, m, reg, 1)
	twin, err := New(Config{Store: m.Store(), Node: 1})
	mustNoErr(t, err)
	mustNoErr(t, twin.FS("alice").WriteFile(ctx, "/d/h", []byte("z")))
	m.Recover()
	wantGauge(t, m, reg, 0)
	if !hasChild(t, m, ns, "h") {
		t.Fatal("a stub survived Recover and suppressed the own-chain replay")
	}
}

// TestFailedLoadLeavesNoStub: a descriptor whose load failed is clean —
// evictable — but has learned nothing about its chain, so its eviction
// must not settle the ring. One that was already settled stays so.
func TestFailedLoadLeavesNoStub(t *testing.T) {
	eng := chaos.New(chaos.Plan{}, nil)
	store, gl := logged(newCluster(t))
	m, err := New(Config{Store: eng.Store(store), Node: 1, DescCacheLimit: fixtureLimit})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	mustNoErr(t, m.FS("alice").Mkdir(ctx, "/d"))
	mustNoErr(t, m.FlushAll(ctx))
	ns, err := m.ResolveNS(ctx, "alice", "/d")
	mustNoErr(t, err)
	ring := core.RingKey("alice", ns)

	// The process dies with /d/f acknowledged but unflushed.
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/d/f", []byte("x")))
	m.Recover()

	eng.FailOn(storemw.OpGet, ring)
	if _, _, err := m.lookupChild(ctx, "alice", ns, "f"); err == nil {
		t.Fatal("ring GET fault did not surface")
	}
	pushOut(t, m, ns)
	if n := stubs(m); n != 0 {
		t.Fatalf("evicting a never-loaded descriptor left %d stubs", n)
	}
	eng.FailOn(storemw.OpGet, "")
	if !hasChild(t, m, ns, "f") {
		t.Fatal("crash-orphaned patch not replayed after a failed load was evicted")
	}

	// Settled, then a failed load, then evicted again: still settled.
	mustNoErr(t, m.FlushAll(ctx))
	pushOut(t, m, ns)
	eng.FailOn(storemw.OpGet, ring)
	if _, _, err := m.lookupChild(ctx, "alice", ns, "f"); err == nil {
		t.Fatal("ring GET fault did not surface")
	}
	pushOut(t, m, ns)
	eng.FailOn(storemw.OpGet, "")
	gl.take()
	if !hasChild(t, m, ns, "f") {
		t.Fatal("f lost")
	}
	if got := gl.takeGets(); !reflect.DeepEqual(got, []string{ring}) {
		t.Fatalf("reload of a settled ring after a failed load issued %q, want the ring GET alone", got)
	}
}

// TestReloadKeepsPeerProbes: peers do write their chains while a ring sits
// evicted here, so a settled reload still replays what they acknowledged.
func TestReloadKeepsPeerProbes(t *testing.T) {
	m, gl, ns := newDirD(t, nil)
	ctx := context.Background()
	peer, err := New(Config{Store: m.Store(), Node: 2})
	mustNoErr(t, err)
	// The peer becomes known to the ring's watermarks by flushing once.
	mustNoErr(t, peer.FS("alice").WriteFile(ctx, "/d/p1", []byte("1")))
	mustNoErr(t, peer.FlushAll(ctx))

	m.Recover()
	if !hasChild(t, m, ns, "p1") {
		t.Fatal("peer's flushed write missing")
	}
	pushOut(t, m, ns)
	mustNoErr(t, peer.FS("alice").WriteFile(ctx, "/d/p2", []byte("2")))
	gl.take()
	if !hasChild(t, m, ns, "p2") {
		t.Fatal("peer's acknowledged but unmerged patch invisible after a settled reload")
	}
	want := []string{
		core.RingKey("alice", ns),
		core.PatchKey("alice", ns, 2, 2), // the peer's patch, replayed
		core.PatchKey("alice", ns, 2, 3), // the end of its chain
	}
	if got := gl.takeGets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("settled reload issued %q, want %q", got, want)
	}
}

// flushOnRead makes every descriptor clean before each read, so under a
// tight cache cap the reads that follow evict, settle and reload rings
// that were just written.
type flushOnRead struct {
	*AccountFS
}

func (f flushOnRead) flush(ctx context.Context) error { return f.mw.FlushAll(ctx) }

func (f flushOnRead) Stat(ctx context.Context, path string) (fsapi.EntryInfo, error) {
	if err := f.flush(ctx); err != nil {
		return fsapi.EntryInfo{}, err
	}
	return f.AccountFS.Stat(ctx, path)
}

func (f flushOnRead) ReadFile(ctx context.Context, path string) ([]byte, error) {
	if err := f.flush(ctx); err != nil {
		return nil, err
	}
	return f.AccountFS.ReadFile(ctx, path)
}

func (f flushOnRead) List(ctx context.Context, path string, detail bool) ([]fsapi.EntryInfo, error) {
	if err := f.flush(ctx); err != nil {
		return nil, err
	}
	return f.AccountFS.List(ctx, path, detail)
}

// TestDifferentialDescCacheLimitOne replays the shared random traces with
// a one-descriptor cache and a flush before every read: nearly
// every ring consult is a settled reload, and the tree must still equal
// the model's.
func TestDifferentialDescCacheLimitOne(t *testing.T) {
	fstest.RunDifferential(t, func(t *testing.T) fsapi.FileSystem {
		reg := metrics.NewRegistry()
		m := newProbedMW(t, func(cfg *Config) {
			cfg.DescCacheLimit = 1
			cfg.Metrics = reg
		})
		t.Cleanup(func() {
			if reg.Counter("descCache.probes.skipped") == 0 {
				t.Error("the trace never reloaded a settled ring; the test exercises nothing")
			}
		})
		return flushOnRead{m.FS("alice")}
	})
}

// TestDescCacheConcurrentSettleAndRecover: writers and readers churn a
// one-descriptor cache while one goroutine flushes (making descriptors
// evictable, hence settled) and another restarts the process (dropping
// the stubs). Every acknowledged write must be there at the end.
func TestDescCacheConcurrentSettleAndRecover(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	const workers, dirs, files = 4, 12, 48
	reg := metrics.NewRegistry()
	m := newMW(t, newCluster(t), 1, func(cfg *Config) {
		cfg.DescCacheLimit = 1
		cfg.Metrics = reg
	})
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs, model := m.FS("alice"), fstest.NewModel()
	dirOf := func(w, i int) string { return fmt.Sprintf("/w%dd%02d", w%workers, i%dirs) }
	for w := 0; w < workers; w++ {
		for i := 0; i < dirs; i++ {
			mustNoErr(t, fs.Mkdir(ctx, dirOf(w, i)))
			mustNoErr(t, model.Mkdir(ctx, dirOf(w, i)))
		}
	}

	var clients, background sync.WaitGroup
	done := make(chan struct{})
	background.Add(2)
	go func() { // the Background Merger
		defer background.Done()
		for {
			select {
			case <-done:
				return
			default:
				if err := m.FlushAll(ctx); err != nil {
					t.Errorf("FlushAll: %v", err)
					return
				}
			}
		}
	}()
	restarts := make(chan struct{}, workers*files)
	go func() { // the crash schedule: one restart per ten acknowledged writes
		defer background.Done()
		for n := 1; ; n++ {
			select {
			case <-done:
				return
			case <-restarts:
				if n%10 == 0 {
					m.Recover()
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		clients.Add(1)
		go func(w int) {
			defer clients.Done()
			for i := 0; i < files; i++ {
				p := fmt.Sprintf("%s/f%02d", dirOf(w, i), i)
				data := []byte(p)
				if err := fs.WriteFile(ctx, p, data); err != nil {
					t.Errorf("WriteFile %s: %v", p, err)
					return
				}
				if err := model.WriteFile(ctx, p, data); err != nil {
					t.Errorf("model WriteFile %s: %v", p, err)
					return
				}
				restarts <- struct{}{}
				// Stat what the neighbour is writing, so rings are consulted
				// (evicted, reloaded) by someone other than their writer. A
				// miss is fine: the neighbour may not be there yet.
				q := fmt.Sprintf("%s/f%02d", dirOf(w+1, i), i)
				if _, err := fs.Stat(ctx, q); err != nil && !errors.Is(err, fsapi.ErrNotFound) {
					t.Errorf("Stat %s: %v", q, err)
					return
				}
			}
		}(w)
	}
	clients.Wait()
	close(done)
	background.Wait()
	if t.Failed() {
		return
	}

	mustNoErr(t, m.FlushAll(ctx))
	m.Recover()
	got, err := fsapi.Tree(ctx, fs, "/")
	mustNoErr(t, err)
	want, err := fsapi.Tree(ctx, model, "/")
	mustNoErr(t, err)
	if len(got) != len(want) {
		t.Fatalf("tree has %d entries, model %d", len(got), len(want))
	}
	for p, w := range want {
		g, ok := got[p]
		if !ok || g.IsDir != w.IsDir || g.Size != w.Size {
			t.Fatalf("%s: got %+v (present=%v), model %+v", p, g, ok, w)
		}
	}
	if reg.Counter("descCache.probes.skipped") == 0 {
		t.Error("no settled reload happened; the test exercises nothing")
	}
	if got, held := reg.Counter("descCache.settled"), stubs(m); got != held {
		t.Errorf("descCache.settled = %d, %d stubs held", got, held)
	}
}

// TestResolveAllocsFlatInDepth: with every descriptor cached, a level of
// the path walk allocates nothing — a Stat 16 levels down costs what one 2
// levels down does.
func TestResolveAllocsFlatInDepth(t *testing.T) {
	m := newMW(t, newCluster(t), 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	dir := ""
	statAllocs := map[int]float64{}
	for depth := 1; depth <= 16; depth++ {
		file := dir + "/f"
		mustNoErr(t, fs.WriteFile(ctx, file, []byte("x")))
		dir += fmt.Sprintf("/d%d", depth)
		mustNoErr(t, fs.Mkdir(ctx, dir))
		if depth == 2 || depth == 16 {
			_, err := fs.Stat(ctx, file) // caches every descriptor on the way
			mustNoErr(t, err)
			statAllocs[depth] = testing.AllocsPerRun(200, func() {
				if _, err := fs.Stat(ctx, file); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	if statAllocs[2] != statAllocs[16] {
		t.Fatalf("cached Stat allocs/op: %v at depth 2, %v at depth 16", statAllocs[2], statAllocs[16])
	}
}

// TestDescCacheLockFreeLookupStress: walkers look cached descriptors up
// with no lock while other goroutines grow the table (a
// Mkdir and a walk into each new directory), drop descriptors (Rmdir),
// restart the process (Recover) and, under a small budget, evict. Every
// lookup must return the ring it asked for, no ring may ever have two
// descriptors in the cache, and no acknowledged directory may be lost.
func TestDescCacheLockFreeLookupStress(t *testing.T) {
	for _, limit := range []int{0, 64} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			fstest.AssertNoGoroutineLeak(t)
			stressLockFreeLookup(t, limit)
		})
	}
}

func stressLockFreeLookup(t *testing.T, limit int) {
	const made, removed = 64, 12
	m := newMW(t, newCluster(t), 1, func(cfg *Config) { cfg.DescCacheLimit = limit })
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	deep, nss := "", []string{}
	for i := 0; i < 8; i++ {
		deep += fmt.Sprintf("/l%d", i)
		mustNoErr(t, fs.Mkdir(ctx, deep))
		ns, err := m.ResolveNS(ctx, "alice", deep)
		mustNoErr(t, err)
		nss = append(nss, ns)
	}
	mustNoErr(t, fs.WriteFile(ctx, deep+"/f", []byte("x")))
	mustNoErr(t, fs.Mkdir(ctx, "/m"))
	mustNoErr(t, m.FlushAll(ctx))

	var workers, background sync.WaitGroup
	done, restarts := make(chan struct{}), make(chan struct{}, made/16)
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	background.Add(4)
	for w := 0; w < 2; w++ { // the walkers
		go func() {
			defer background.Done()
			for !stopped() {
				for _, ns := range nss {
					if d := m.desc("alice", ns); d.account != "alice" || d.ns != ns {
						t.Errorf("desc(alice, %s) returned the descriptor of (%s, %s)", ns, d.account, d.ns)
						return
					}
				}
				if _, err := fs.Stat(ctx, deep+"/f"); err != nil {
					t.Errorf("Stat %s/f: %v", deep, err)
					return
				}
			}
		}()
	}
	go func() { // the auditor
		defer background.Done()
		for !stopped() {
			if dup := duplicateDesc(m); dup != "" {
				t.Errorf("ring %s has two descriptors in the cache", dup)
				return
			}
		}
	}()
	go func() { // the merger and the crash schedule
		defer background.Done()
		for {
			select {
			case <-done:
				return
			case <-restarts:
				if err := m.FlushAll(ctx); err != nil {
					t.Errorf("FlushAll: %v", err)
					return
				}
				m.Recover()
			}
		}
	}()
	workers.Add(2)
	go func() { // grows the tables: every new directory's ring is consulted
		defer workers.Done()
		for i := 0; i < made; i++ {
			dir := fmt.Sprintf("/m/x%03d", i)
			if err := fs.Mkdir(ctx, dir); err != nil {
				t.Errorf("Mkdir %s: %v", dir, err)
				return
			}
			if _, err := fs.Stat(ctx, dir+"/none"); !errors.Is(err, fsapi.ErrNotFound) {
				t.Errorf("Stat %s/none = %v, want ErrNotFound", dir, err)
				return
			}
			if i%16 == 15 {
				restarts <- struct{}{}
			}
		}
	}()
	go func() { // drops descriptors: Rmdir collects the ring
		defer workers.Done()
		for i := 0; i < removed; i++ {
			dir := fmt.Sprintf("/r%02d", i)
			err := fs.Mkdir(ctx, dir)
			if err == nil {
				err = fs.WriteFile(ctx, dir+"/f", []byte("x"))
			}
			if err == nil {
				err = fs.Rmdir(ctx, dir)
			}
			if err != nil {
				t.Errorf("%s: %v", dir, err)
				return
			}
		}
	}()
	workers.Wait()
	close(done)
	background.Wait()
	if t.Failed() {
		return
	}
	if dup := duplicateDesc(m); dup != "" {
		t.Fatalf("ring %s has two descriptors in the cache", dup)
	}
	m.Recover()
	entries, err := fs.List(ctx, "/m", false)
	mustNoErr(t, err)
	if len(entries) != made {
		t.Fatalf("/m lists %d directories, want %d", len(entries), made)
	}
}

// duplicateDesc returns a ring that two descriptors in the table claim,
// stubs included, or "".
func duplicateDesc(m *Middleware) string {
	c := &m.descs
	c.mu.Lock()
	defer c.mu.Unlock()
	seen, dup := map[string]bool{}, ""
	c.each(func(d *descriptor) {
		if seen[d.key] {
			dup = d.key
		}
		seen[d.key] = true
	})
	return dup
}

// clockOf returns the CLOCK's state: the hand, then every resident in
// clock order with its referenced bit.
func clockOf(m *Middleware) (int, []string) {
	c := &m.descs
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.clock))
	for i, d := range c.clock {
		out[i] = fmt.Sprintf("%s %v", d.ns, d.referenced.Load())
	}
	return c.hand, out
}

// fillClock makes the never-loaded, clean residents r0.. of a cache capped
// at n, in clock order, with the hand on r0.
func fillClock(t *testing.T, n int) *Middleware {
	t.Helper()
	m := newMW(t, newCluster(t), 1, func(cfg *Config) { cfg.DescCacheLimit = n })
	for i := 0; i < n; i++ {
		m.desc("alice", fmt.Sprintf("r%d", i))
	}
	if hand, clock := clockOf(m); hand != 0 || len(clock) != n {
		t.Fatalf("hand %d over %v, want 0 over %d residents", hand, clock, n)
	}
	return m
}

// TestClockSparesReferenced: a resident hit since the hand last passed
// survives the pass, which clears its bit, and the next clean one goes.
// The new descriptor trades the released slot for the one the hand visits
// next (a tenth of a turn of 4), whose resident takes the whole turn.
func TestClockSparesReferenced(t *testing.T) {
	m := fillClock(t, 4)
	m.desc("alice", "r0") // a hit
	m.desc("alice", "new")
	if !cached(m, "alice", "r0") || cached(m, "alice", "r1") {
		t.Fatalf("r0 cached %v, r1 cached %v: want the hand to pass r0 and release r1",
			cached(m, "alice", "r0"), cached(m, "alice", "r1"))
	}
	if hand, clock := clockOf(m); hand != 2 || !reflect.DeepEqual(clock, []string{"r0 false", "r2 false", "new false", "r3 false"}) {
		t.Fatalf("hand %d over %v", hand, clock)
	}
}

// seat returns on which of the hand's visits it reaches the ring's
// resident descriptor: 1 is the next visit, the clock's length a whole turn.
func seat(m *Middleware, ns string) int {
	c := &m.descs
	c.mu.Lock()
	defer c.mu.Unlock()
	d, n := c.find("alice", ns, core.RingHash("alice", ns)), len(c.clock)
	return (d.slot-c.hand%n+n)%n + 1
}

// TestClockReleasesANewRingReadOnce: a new descriptor starts a tenth of a
// turn from the hand, so one that nobody touches again is released before
// the older residents that were unreferenced all along; under plain CLOCK
// it would outlast every one of them.
func TestClockReleasesANewRingReadOnce(t *testing.T) {
	m := fillClock(t, 20)
	m.desc("alice", "new") // releases r0
	if got := seat(m, "new"); got != 2 {
		t.Fatalf("new sits %d visits from the hand, want 2", got)
	}
	m.desc("alice", "a1") // releases r1
	m.desc("alice", "a2") // reaches new
	if cached(m, "alice", "new") {
		t.Fatal("the new ring nobody touched outlived the hand's second visit")
	}
	for i := 2; i < 20; i++ {
		if !cached(m, "alice", fmt.Sprintf("r%d", i)) {
			t.Fatalf("r%d was released before the new ring nobody touched", i)
		}
	}
}

// TestClockKeepsANewRingHitInItsWindow: a new descriptor hit before the
// hand arrives is a resident like any other: the hand clears its bit and
// passes on.
func TestClockKeepsANewRingHitInItsWindow(t *testing.T) {
	m := fillClock(t, 20)
	m.desc("alice", "new")
	m.desc("alice", "a1")
	m.desc("alice", "new") // a hit inside the window
	m.desc("alice", "a2")
	if !cached(m, "alice", "new") {
		t.Fatal("a new ring hit inside its window was released")
	}
	c := &m.descs
	if d := c.find("alice", "new", core.RingHash("alice", "new")); d.referenced.Load() {
		t.Fatal("the hand passed the hit new ring without clearing its bit")
	}
}

// TestClockGivesARecentStubTheWholeTurn: a stub woken within limit
// releases of its own release was evicted too early, and starts a whole
// turn from the hand; one released longer ago starts a tenth of a turn
// away, like a ring never seen.
func TestClockGivesARecentStubTheWholeTurn(t *testing.T) {
	const n = 20
	m := fillClock(t, n)
	c := &m.descs
	loadAll := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, d := range c.clock {
			d.loaded = true // a release leaves a stub
		}
	}
	loadAll()
	m.desc("alice", "new") // releases r0, a stub
	loadAll()
	m.desc("alice", "r0") // wakes it one release later
	if got := seat(m, "r0"); got != n {
		t.Fatalf("a stub woken one release after its own sits %d visits from the hand, want %d", got, n)
	}
	for i := 0; c.releases-c.find("alice", "r1", core.RingHash("alice", "r1")).releasedAt <= n; i++ {
		m.desc("alice", fmt.Sprintf("a%d", i))
	}
	m.desc("alice", "r1") // released more than limit releases ago
	if got := seat(m, "r1"); got != n/10 {
		t.Fatalf("a stub woken %d releases late sits %d visits from the hand, want %d", n, got, n/10)
	}
}

// TestClockNeverReleasesANewDirtyRing: a new descriptor that takes a write
// before the hand arrives stays through the visit and every later one.
func TestClockNeverReleasesANewDirtyRing(t *testing.T) {
	m := fillClock(t, 20)
	d := m.lockedDesc("alice", "new")
	d.dirtyNames["f"] = struct{}{}
	m.unlockDesc(d)
	for i := 0; i < 3*20; i++ {
		m.desc("alice", fmt.Sprintf("a%d", i))
		if !cached(m, "alice", "new") {
			t.Fatalf("insert %d released the dirty new ring", i)
		}
	}
}

// TestClockNeverReleasesDirty: a resident with unflushed state stays
// through every turn of the hand, however cold.
func TestClockNeverReleasesDirty(t *testing.T) {
	m := fillClock(t, 2)
	d := m.lockedDesc("alice", "r0")
	d.dirtyNames["f"] = struct{}{}
	m.unlockDesc(d)
	for i := 0; i < 8; i++ {
		m.desc("alice", fmt.Sprintf("n%d", i))
		if !cached(m, "alice", "r0") {
			t.Fatalf("insert %d released the dirty r0", i)
		}
	}
	if _, clock := clockOf(m); len(clock) != 2 {
		t.Fatalf("clock %v, want the dirty r0 and one more", clock)
	}
}

// TestClockStepsAreCapped: over a circle of dirty residents an insert
// moves the hand clockSteps and no further, then overflows the limit.
func TestClockStepsAreCapped(t *testing.T) {
	const n = 100
	m := fillClock(t, n)
	for i := 0; i < n; i++ {
		d := m.lockedDesc("alice", fmt.Sprintf("r%d", i))
		d.dirtyNames["f"] = struct{}{}
		d.referenced.Store(false) // dirty alone must stop the hand
		m.unlockDesc(d)
	}
	m.desc("alice", "new")
	if hand, clock := clockOf(m); hand != clockSteps || len(clock) != n+1 {
		t.Fatalf("hand at %d with %d residents, want %d and %d", hand, len(clock), clockSteps, n+1)
	}
}

// TestEvictInsertLoopReleasesEveryStep: the hot-path rows h2fs/evict-insert
// and h2fs/evict-new measure an admission to a full clock, so no step may
// be a hit. Each must find its ring a stub (fresh: not in the table) and
// release one descriptor.
func TestEvictInsertLoopReleasesEveryStep(t *testing.T) {
	const n = 64
	for _, fresh := range []bool{false, true} {
		m, step := EvictInsertLoop(n, fresh)
		c := &m.descs
		for i := 0; i < 3*n; i++ {
			ns := fmt.Sprintf("ns%d", i%(n+1)) // the warm-up stepped once round
			d := c.find("bench", ns, core.RingHash("bench", ns))
			if fresh && d != nil || !fresh && (d == nil || d.resident.Load()) {
				t.Fatalf("fresh %v: step %d found %s in the table %v, resident %v",
					fresh, i, ns, d != nil, d != nil && d.resident.Load())
			}
			releases := c.releases
			step()
			if c.releases != releases+1 {
				t.Fatalf("fresh %v: step %d released %d descriptors, want 1", fresh, i, c.releases-releases)
			}
		}
	}
}

// TestBoundedHitTakesNoLock: a hit on a bounded cache completes while the
// cache lock is held elsewhere, and allocates nothing.
func TestBoundedHitTakesNoLock(t *testing.T) {
	m := fillClock(t, 4096)
	c := &m.descs
	c.mu.Lock()
	defer c.mu.Unlock()
	allocs := make(chan float64, 1)
	go func() {
		allocs <- testing.AllocsPerRun(100, func() { m.desc("alice", "r0") })
	}()
	select {
	case got := <-allocs:
		if got != 0 {
			t.Fatalf("a bounded hit allocates %v times", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a bounded hit waited for the cache lock")
	}
}

// TestLockedDescRetriesReleased: a descriptor released between the lookup
// and the lock is looked up again, which wakes its stub; the caller never
// works in a descriptor that is not resident.
func TestLockedDescRetriesReleased(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newMW(t, newCluster(t), 1, func(cfg *Config) {
		cfg.DescCacheLimit = 4
		cfg.Metrics = reg
	})
	d := m.lockedDesc("alice", "a")
	d.loaded = true
	got := make(chan *descriptor)
	go func() {
		l := m.lockedDesc("alice", "a")
		m.unlockDesc(l)
		got <- l
	}()
	for !d.referenced.Load() { // the lookup hit; the monitor is next
		runtime.Gosched()
	}
	func() { // the hand, as it would release d were d not busy
		c := &m.descs
		c.mu.Lock()
		defer c.mu.Unlock()
		m.releaseLocked(d)
		c.unclock(d.slot)
	}()
	m.unlockDesc(d)
	if l := <-got; l != d || !l.resident.Load() {
		t.Fatalf("lockedDesc returned the released descriptor (same %v, resident %v)", l == d, l.resident.Load())
	}
	wantGauge(t, m, reg, 0)
}

// BenchmarkCachedStatParallel: a cached Stat 16 levels down from every
// goroutine -cpu allows, half of them on each of two accounts, as
// deep_lookup's two clients run. Each level is one descriptor lookup, so a
// write that lookups share shows as the gap between -cpu 1 and -cpu 2. The
// bounded rung holds every descriptor resident under a limit, so each
// lookup is a hit on the CLOCK: a referenced bit, set once.
func BenchmarkCachedStatParallel(b *testing.B) {
	for _, limit := range []int{0, 4096} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) { benchCachedStat(b, limit) })
	}
}

func benchCachedStat(b *testing.B, limit int) {
	m := newMW(b, newCluster(b), 1, func(cfg *Config) { cfg.DescCacheLimit = limit })
	ctx := context.Background()
	accounts := []string{"alice", "bob"}
	file := ""
	for _, a := range accounts {
		mustNoErr(b, m.CreateAccount(ctx, a))
		fs := m.FS(a)
		dir := ""
		for i := 1; i < 16; i++ {
			dir += fmt.Sprintf("/d%02d", i)
			mustNoErr(b, fs.Mkdir(ctx, dir))
		}
		file = dir + "/f"
		mustNoErr(b, fs.WriteFile(ctx, file, []byte("x")))
		_, err := fs.Stat(ctx, file) // caches every descriptor on the way
		mustNoErr(b, err)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		fs := m.FS(accounts[next.Add(1)%2])
		for pb.Next() {
			if _, err := fs.Stat(ctx, file); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestColdLookupRingGets: two accounts' lookups in turn over deep
// generated trees after a restart, under a cache of a twentieth of their
// rings, as the benchmark's counted pass replays its two clients. Each walk
// reads the same few ancestors and a deep tail rarely read again, so the
// ring GETs a lookup sends count how well the cache keeps the ancestors,
// and, once the second account starts, how soon its ancestors displace the
// first's. Measured per lookup: 3.85 with the short seat and its stub
// rule; 4.64 under plain CLOCK, which seats every new descriptor a whole
// turn from the hand; 6.26 with the short seat for every admission, where
// the second account's ancestors, each released a tenth of a turn after
// it arrives, never take over.
func TestColdLookupRingGets(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newMW(t, newCluster(t), 1, func(cfg *Config) {
		cfg.Clock = steppingClock()
		cfg.DescCacheLimit = 32
		cfg.Metrics = reg
	})
	ctx := context.Background()
	accounts := []string{"alice", "bob"}
	trees := make([]*workload.Filesystem, len(accounts))
	for i, acct := range accounts {
		mustNoErr(t, m.CreateAccount(ctx, acct))
		trees[i] = workload.Generate(workload.Spec{Seed: int64(1 + i), Dirs: 300, Files: 1000, MaxDepth: 22})
		mustNoErr(t, trees[i].Populate(ctx, m.FS(acct), 1))
	}
	mustNoErr(t, m.FlushAll(ctx))
	m.Recover()
	const lookups = 1000 // per account
	before := reg.Requests()
	for i, acct := range accounts {
		ops := workload.GenerateOps(trees[i], lookups, int64(3+i), map[workload.OpKind]int{workload.OpStat: 70, workload.OpRead: 30})
		mustNoErr(t, workload.Replay(ctx, m.FS(acct), ops))
	}
	gets := reg.Requests().Sub(before)[metrics.PrimGet][core.KeyRing].N
	if perLookup := float64(gets) / (2 * lookups); perLookup > 4.25 {
		t.Fatalf("%.3f ring GETs per lookup, want at most 4.25", perLookup)
	}
}
