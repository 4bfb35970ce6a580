package h2fs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

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
	key := core.RingKey("alice", ns)
	for i := 0; ; i++ {
		decoy := fmt.Sprintf("decoy%d", i)
		if stripeOf(core.RingKey("alice", decoy)) != stripeOf(key) {
			continue
		}
		m.desc("alice", decoy)
		m.dropDesc("alice", decoy)
		break
	}
	if cached(m, key) {
		t.Fatalf("descriptor of %s survived the push (not clean?)", ns)
	}
}

func cached(m *Middleware, key string) bool {
	st := &m.stripes[stripeOf(key)]
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.descs[key]
	return ok
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

// newDirD returns a middleware over a request-logging cluster with /d
// holding the flushed file f, and /d's namespace.
func newDirD(t *testing.T, reg *metrics.Registry) (*Middleware, *reqLog, string) {
	t.Helper()
	gl := &reqLog{Store: newCluster(t)}
	m, err := New(Config{Store: gl, Node: 1, DescCacheLimit: descStripes, Metrics: reg})
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
