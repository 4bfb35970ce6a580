package h2fs

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/metrics"
)

// pushOut evicts ns's descriptor the way production does: a same-stripe
// insert past the budget (the tests cap the cache at one descriptor per
// stripe). The decoy that did the pushing is dropped again, so the stripe
// is left holding nothing.
func pushOut(t *testing.T, m *Middleware, ns string) {
	t.Helper()
	want, _ := stripeOf("alice", ns)
	for i := 0; ; i++ {
		decoy := fmt.Sprintf("decoy%d", i)
		if s, _ := stripeOf("alice", decoy); s != want {
			continue
		}
		m.desc("alice", decoy)
		m.dropDesc("alice", decoy)
		break
	}
	if cached(m, "alice", ns) {
		t.Fatalf("descriptor of %s survived the push (not clean?)", ns)
	}
}

func cached(m *Middleware, account, ns string) bool {
	i, hash := stripeOf(account, ns)
	st := &m.stripes[i]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.find(account, ns, hash) != nil
}

// stubs counts the settled stubs actually held, for comparison with the
// descCache.settled gauge.
func stubs(m *Middleware) int64 {
	held := func(st *descStripe) int64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		return int64(len(st.settled))
	}
	var n int64
	for i := range m.stripes {
		n += held(&m.stripes[i])
	}
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
// namespaces a fixture mints — and the stripes their rings land in — are
// the same on every run. Under the wall clock, whether the root and /d
// shared a stripe depended on a millisecond boundary.
func steppingClock() func() time.Time {
	var ms atomic.Int64
	return func() time.Time { return time.UnixMilli(1_700_000_000_000 + ms.Add(1)) }
}

// wantStripesApart fails unless alice's root ring and the rings at paths
// sit in different stripes. Under a budget of one descriptor per stripe,
// two rings that share one evict each other, and every request count a
// test pins would include the reload.
func wantStripesApart(t *testing.T, m *Middleware, paths ...string) {
	t.Helper()
	seen := map[int]string{}
	for _, p := range append([]string{"/"}, paths...) {
		ns, err := m.ResolveNS(context.Background(), "alice", p)
		mustNoErr(t, err)
		s, _ := stripeOf("alice", ns)
		if other, ok := seen[s]; ok {
			t.Fatalf("the rings of %s and %s share stripe %d", other, p, s)
		}
		seen[s] = p
	}
}

// newDirD returns a middleware over a request-logging cluster with /d
// holding the flushed file f, and /d's namespace.
func newDirD(t *testing.T, reg *metrics.Registry) (*Middleware, *reqLog, string) {
	t.Helper()
	gl := &reqLog{Store: newCluster(t)}
	m, err := New(Config{Store: gl, Node: 1, Clock: steppingClock(), DescCacheLimit: descStripes, Metrics: reg})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	mustNoErr(t, m.FS("alice").Mkdir(ctx, "/d"))
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/d/f", []byte("x")))
	mustNoErr(t, m.FlushAll(ctx))
	wantStripesApart(t, m, "/d")
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
	fresh, err := New(Config{Store: gl, Node: 2})
	mustNoErr(t, err)
	if !hasChild(t, fresh, ns, "f") || !hasChild(t, fresh, ns, "g") {
		t.Fatal("a fresh middleware does not see what the settled descriptor flushed")
	}
}

// TestSettledSetIsBounded: a stripe's stub set is reset wholesale at
// settledLimit — forgetting a stub only costs a probe — and the gauge
// follows the reset.
func TestSettledSetIsBounded(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newMW(t, newCluster(t), 1, func(cfg *Config) { cfg.Metrics = reg })
	settle := func(key string) {
		st := &m.stripes[0]
		st.mu.Lock()
		defer st.mu.Unlock()
		m.settleLocked(st, key)
	}
	for i := 0; i < settledLimit; i++ {
		settle(fmt.Sprintf("k%d", i))
	}
	wantGauge(t, m, reg, settledLimit)
	settle("one more")
	wantGauge(t, m, reg, 1)
}

// TestRecoverForgetsStubs: Recover starts a new process epoch, and nothing
// remembered from the old one may suppress a crash replay.
func TestRecoverForgetsStubs(t *testing.T) {
	reg := metrics.NewRegistry()
	m, gl, ns := newDirD(t, reg)
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
	twin, err := New(Config{Store: gl, Node: 1})
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
	cs := chaos.New(chaos.Plan{}, nil).Store(&reqLog{Store: newCluster(t)})
	gl := cs.Inner().(*reqLog)
	m, err := New(Config{Store: cs, Node: 1, DescCacheLimit: descStripes})
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

	cs.FailOn(chaos.OpGet, ring)
	if _, _, err := m.lookupChild(ctx, "alice", ns, "f"); err == nil {
		t.Fatal("ring GET fault did not surface")
	}
	pushOut(t, m, ns)
	if n := stubs(m); n != 0 {
		t.Fatalf("evicting a never-loaded descriptor left %d stubs", n)
	}
	cs.FailOn(chaos.OpGet, "")
	if !hasChild(t, m, ns, "f") {
		t.Fatal("crash-orphaned patch not replayed after a failed load was evicted")
	}

	// Settled, then a failed load, then evicted again: still settled.
	mustNoErr(t, m.FlushAll(ctx))
	pushOut(t, m, ns)
	cs.FailOn(chaos.OpGet, ring)
	if _, _, err := m.lookupChild(ctx, "alice", ns, "f"); err == nil {
		t.Fatal("ring GET fault did not surface")
	}
	pushOut(t, m, ns)
	cs.FailOn(chaos.OpGet, "")
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
	peer, err := New(Config{Store: gl, Node: 2})
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
// a one-descriptor-per-stripe cache and a flush before every read: nearly
// every ring consult is a settled reload, and the tree must still equal
// the model's.
func TestDifferentialDescCacheLimitOne(t *testing.T) {
	fstest.RunDifferential(t, func(t *testing.T) fsapi.FileSystem {
		reg := metrics.NewRegistry()
		m := newMW(t, newCluster(t), 1, func(cfg *Config) {
			cfg.DescCacheLimit = 1
			cfg.Metrics = reg
		})
		mustNoErr(t, m.CreateAccount(context.Background(), "alice"))
		t.Cleanup(func() {
			if reg.Counter("descCache.probes.skipped") == 0 {
				t.Error("the trace never reloaded a settled ring; the test exercises nothing")
			}
		})
		return flushOnRead{m.FS("alice")}
	})
}

// TestDescCacheConcurrentSettleAndRecover: writers and readers churn a
// one-per-stripe cache while one goroutine flushes (making descriptors
// evictable, hence settled) and another restarts the process (dropping
// the stubs). Every acknowledged write must be there at the end.
func TestDescCacheConcurrentSettleAndRecover(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	const workers, dirs, files = 4, 12, 48 // 48 rings on 32 stripes: most share one
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

// TestStripeOfIsShardOfRingKey pins stripe routing to the ring key's
// FNV-1a: which rings share a stripe decides which descriptors its budget
// evicts, so routing on the (account, ns) pair must land every ring in the
// stripe its ring key would.
func TestStripeOfIsShardOfRingKey(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1))
	accounts := []string{"alice", "bench", "a", "", "user_0042", "x-y"}
	for i := 0; i < 4096; i++ {
		var ns string
		switch i % 3 {
		case 0: // what uuid.Gen mints
			ns = fmt.Sprintf("%02d.%02d.%d", rng.IntN(1000), rng.IntN(100), rng.Int64())
		case 1: // RFC 4122-shaped
			ns = fmt.Sprintf("%08x-%04x-%04x-%04x-%012x",
				rng.Uint32(), rng.Uint32()&0xffff, rng.Uint32()&0xffff, rng.Uint32()&0xffff, rng.Uint64()&0xffffffffffff)
		default: // any bytes, high ones and separators included
			b := make([]byte, rng.IntN(48))
			for j := range b {
				b[j] = byte(rng.UintN(256))
			}
			ns = string(b)
		}
		a := accounts[i%len(accounts)]
		got, _ := stripeOf(a, ns)
		if want := core.ShardOf(core.RingKey(a, ns), descStripes); got != want {
			t.Fatalf("stripeOf(%q, %q) = %d, ShardOf(RingKey) = %d", a, ns, got, want)
		}
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
// with no lock while other goroutines grow the same stripes' tables (a
// Mkdir and a walk into each new directory), drop descriptors (Rmdir),
// restart the process (Recover) and, under a small budget, evict. Every
// lookup must return the ring it asked for, no ring may ever have two
// descriptors in the cache, and no acknowledged directory may be lost.
func TestDescCacheLockFreeLookupStress(t *testing.T) {
	for _, limit := range []int{0, 2 * descStripes} {
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

// duplicateDesc returns a ring that two cached descriptors claim, or "".
func duplicateDesc(m *Middleware) string {
	seen := map[string]bool{}
	for _, d := range m.cachedDescs() {
		if seen[d.key] {
			return d.key
		}
		seen[d.key] = true
	}
	return ""
}

// BenchmarkCachedStatParallel: a cached Stat 16 levels down from every
// goroutine -cpu allows, half of them on each of two accounts, as
// deep_lookup's two clients run. Each level is one descriptor lookup, so a
// write that lookups share shows as the gap between -cpu 1 and -cpu 2.
func BenchmarkCachedStatParallel(b *testing.B) {
	m := newMW(b, newCluster(b), 1)
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
