package h2fs

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// clusterNames unions object names across every device — the key
// universe a scrub pass cross-checks.
func clusterNames(c *cluster.Cluster) []string { return c.Names() }

// buildVictim populates dir with a nested subtree: plain files, a
// subdirectory with more files, and a chunked file.
func buildVictim(t *testing.T, m *Middleware, dir string) {
	t.Helper()
	ctx := context.Background()
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, dir))
	for i := 0; i < 4; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("%s/f%d", dir, i), []byte("data")))
	}
	mustNoErr(t, fs.Mkdir(ctx, dir+"/sub"))
	mustNoErr(t, fs.WriteFile(ctx, dir+"/sub/deep", []byte("deep")))
	mustNoErr(t, m.WriteFileChunked(ctx, "alice", dir+"/big",
		bytes.NewReader(bytes.Repeat([]byte("v"), 50)), 10))
}

// assertKeepIntact verifies the surviving subtree byte-for-byte — the
// no-double-free oracle: reclamation and scrubbing must never touch it.
func assertKeepIntact(t *testing.T, m *Middleware) {
	t.Helper()
	ctx := context.Background()
	fs := m.FS("alice")
	for i := 0; i < 3; i++ {
		data, err := fs.ReadFile(ctx, fmt.Sprintf("/keep/k%d", i))
		mustNoErr(t, err)
		if string(data) != fmt.Sprintf("keep %d", i) {
			t.Fatalf("/keep/k%d content = %q", i, data)
		}
	}
}

func setupKeep(t *testing.T, m *Middleware) {
	t.Helper()
	ctx := context.Background()
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/keep"))
	for i := 0; i < 3; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/keep/k%d", i), []byte(fmt.Sprintf("keep %d", i))))
	}
}

// TestGCQueueAsyncRmdir is the acceptance scenario: with EagerGC off and
// the queue on, RMDIR returns after the intent and tombstone (O(1) ring
// work), the subtree survives physically until the drain reclaims it,
// and a second drain is a no-op.
func TestGCQueueAsyncRmdir(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
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
	populated := c.Stats().Objects

	mustNoErr(t, m.FS("alice").Rmdir(ctx, "/zap"))
	// Unreachable immediately, but nothing reclaimed yet: the only new
	// objects are the tombstone patch, the queue entry, and the index.
	if _, err := m.FS("alice").Stat(ctx, "/zap/f0"); err == nil {
		t.Fatal("/zap reachable after rmdir")
	}
	if got := c.Stats().Objects; got != populated+3 {
		t.Fatalf("objects after queued rmdir = %d, want %d (+tombstone patch, +entry, +index)", got, populated+3)
	}
	snap, err := m.GCQueueSnapshot(ctx)
	mustNoErr(t, err)
	if snap == nil || snap.Pending != 1 || snap.Enqueued != 1 {
		t.Fatalf("snapshot = %+v, want 1 pending / 1 enqueued", snap)
	}

	drained, err := m.DrainGC(ctx)
	mustNoErr(t, err)
	if drained != 1 {
		t.Fatalf("DrainGC = %d entries, want 1", drained)
	}
	mustNoErr(t, m.FlushAll(ctx))
	if reg.Counter("gcqueue.reclaimed") != 1 {
		t.Fatalf("reclaimed counter = %d", reg.Counter("gcqueue.reclaimed"))
	}
	assertKeepIntact(t, m)
	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans after drain: %v", rep.Orphans)
	}
	// Replay is a no-op.
	drained, err = m.DrainGC(ctx)
	mustNoErr(t, err)
	if drained != 0 {
		t.Fatalf("second DrainGC = %d entries, want 0", drained)
	}
	snap, err = m.GCQueueSnapshot(ctx)
	mustNoErr(t, err)
	if snap.Pending != 0 {
		t.Fatalf("pending after drain = %d", snap.Pending)
	}
}

// TestGCQueueCrashMidDrainConverges is the tentpole's chaos proof: a
// step-indexed crash schedule takes two storage nodes down mid-drain
// (quorum lost partway through the walk), the middleware itself crashes
// and restarts (Recover), the schedule restores the nodes, and replay
// converges — /keep intact (no double-free), scrubber-verified zero
// orphans, every assertion oracle-checked against the pre-rmdir state.
func TestGCQueueCrashMidDrainConverges(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile(), Clock: clock})
	mustNoErr(t, err)
	devs := c.Ring().DeviceIDs()
	reg := metrics.NewRegistry()
	eng := chaos.New(chaos.Plan{
		Seed: 41,
		Events: []chaos.Event{
			{Step: 1, Node: devs[0], Down: true},
			{Step: 1, Node: devs[1], Down: true},
			{Step: 2, Node: devs[0], Down: false},
			{Step: 2, Node: devs[1], Down: false},
		},
	}, reg)
	eng.Bind(c)
	cs := eng.Store(c)
	m, err := New(Config{
		Store: cs, Node: 1, Clock: clock,
		GCQueue: true, Retry: true, Metrics: reg,
	})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FlushAll(ctx))
	baseline := len(clusterNames(c)) // oracle: post-reclamation key count, minus the doomed subtree

	subRes, err := m.resolve(ctx, "alice", "/zap/sub")
	mustNoErr(t, err)
	mustNoErr(t, m.FS("alice").Rmdir(ctx, "/zap"))

	// Step 1: two devices go dark mid-drain (their replicas go stale) and
	// a hard fault kills the walk inside /zap/sub — the process dies with
	// the subtree half reclaimed.
	eng.Step()
	cs.FailOn(chaos.OpDelete, subRes.tuple.NS)
	if _, err := m.DrainGC(ctx); err == nil {
		t.Fatal("drain succeeded despite injected crash; chaos exercised nothing")
	}
	if reg.Counter("gcqueue.reclaimed") != 0 {
		t.Fatal("entry dequeued despite failed drain")
	}

	// The middleware restarts; step 2 restores the nodes; anti-entropy
	// resurrects whatever replicas the outage left stale — including
	// copies of objects the interrupted walk already deleted. Recover
	// drops the span mirror, so the drain below re-reads the durable
	// index: the resumed-reclamation path.
	m.Recover()
	cs.FailOn(chaos.OpDelete, "")
	eng.Step()
	for round := 0; round < 3; round++ {
		c.Repair(ctx, 1)
	}

	drained, err := m.DrainGC(ctx)
	mustNoErr(t, err)
	if drained != 1 {
		t.Fatalf("replay drained %d entries, want 1", drained)
	}
	mustNoErr(t, m.FlushAll(ctx))
	for round := 0; round < 3; round++ {
		c.Repair(ctx, 1)
	}
	// Replicas deleted while their nodes were down can come back through
	// anti-entropy after the entry is gone; the scrubber is the backstop
	// that reclaims such remnants, after which a clean pass must report
	// zero orphans.
	if _, err := m.Scrub(ctx, clusterNames(c), true); err != nil {
		t.Fatal(err)
	}
	final, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(final.Orphans) != 0 {
		t.Fatalf("orphans after converged replay: %v", final.Orphans)
	}
	assertKeepIntact(t, m)
	// Oracle count: everything from before the rmdir except the doomed
	// subtree, plus the durable queue index.
	zapObjects := 1 /*dir entry*/ + 1 /*ring*/ + 4 /*files*/ +
		1 /*sub entry*/ + 1 /*sub ring*/ + 1 /*deep*/ + 1 /*manifest*/ + 5 /*segments*/
	want := baseline - zapObjects + 1 // + queue index object
	if got := len(clusterNames(c)); got != want {
		t.Fatalf("converged key count = %d, want %d", got, want)
	}
	if _, err := m.FS("alice").Stat(ctx, "/zap"); err == nil {
		t.Fatal("/zap still visible after replay")
	}
}

// TestGCQueueStaleIntentDropped models a crash between enqueue and
// tombstone: the intent exists but the RMDIR was never acknowledged.
// The drain must drop the intent without touching the live subtree.
func TestGCQueueStaleIntentDropped(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	m := newMW(t, c, 1, func(cfg *Config) {
		cfg.EagerGC = false
		cfg.GCQueue = true
		cfg.Metrics = reg
	})
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FlushAll(ctx))

	// Enqueue the intent by hand — the crash leaves exactly this state —
	// for both the directory and the whole account.
	res, err := m.resolve(ctx, "alice", "/zap")
	mustNoErr(t, err)
	_, err = m.enqueueGC(ctx, core.GCEntry{Account: "alice", NS: res.tuple.NS, ParentNS: res.parentNS, Name: res.tuple.Name})
	mustNoErr(t, err)
	rootNS, err := m.rootNS(ctx, "alice")
	mustNoErr(t, err)
	_, err = m.enqueueGC(ctx, core.GCEntry{Account: "alice", NS: rootNS, Root: true})
	mustNoErr(t, err)
	// The crash kills the operations mid-window: the restarted process has
	// no in-flight state, so the drain below validates both intents.
	m.Recover()

	drained, err := m.DrainGC(ctx)
	mustNoErr(t, err)
	if drained != 2 {
		t.Fatalf("drained = %d, want 2", drained)
	}
	if got := reg.Counter("gcqueue.stale"); got != 2 {
		t.Fatalf("stale counter = %d, want 2", got)
	}
	if got := reg.Counter("gcqueue.reclaimed"); got != 0 {
		t.Fatalf("reclaimed counter = %d, want 0", got)
	}
	// The subtree must be fully alive.
	data, err := m.FS("alice").ReadFile(ctx, "/zap/sub/deep")
	mustNoErr(t, err)
	if string(data) != "deep" {
		t.Fatalf("live file content = %q", data)
	}
	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans: %v", rep.Orphans)
	}
}

// TestGCQueueDrainDefersInflightIntent pins the enqueue-to-ack window:
// a drain that observes an intent whose RMDIR has not yet landed its
// tombstone must defer it — the still-live parent tuple is not evidence
// of staleness — and reclaim it normally once the operation settles.
// Before the in-flight window existed, the drain here deleted the
// intent as stale and the subsequent tombstone stranded the subtree.
func TestGCQueueDrainDefersInflightIntent(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	m := newMW(t, c, 1, func(cfg *Config) {
		cfg.EagerGC = false
		cfg.GCQueue = true
		cfg.Metrics = reg
	})
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FlushAll(ctx))

	// Open the window exactly as Rmdir does: intent recorded, tombstone
	// not yet submitted.
	res, err := m.resolve(ctx, "alice", "/zap")
	mustNoErr(t, err)
	seq, err := m.enqueueGC(ctx, core.GCEntry{Account: "alice", NS: res.tuple.NS, ParentNS: res.parentNS, Name: res.tuple.Name})
	mustNoErr(t, err)

	drained, err := m.DrainGC(ctx)
	mustNoErr(t, err)
	if drained != 0 {
		t.Fatalf("drain inside the window drained %d entries, want 0", drained)
	}
	if got := reg.Counter("gcqueue.stale"); got != 0 {
		t.Fatalf("in-flight intent dropped as stale (counter = %d)", got)
	}
	if reg.Counter("gcqueue.deferred") == 0 {
		t.Fatal("drain did not record the deferred probe")
	}
	if data, err := m.FS("alice").ReadFile(ctx, "/zap/sub/deep"); err != nil || string(data) != "deep" {
		t.Fatalf("subtree touched inside the window: %q, %v", data, err)
	}

	// The rmdir acknowledges: tombstone lands, window closes. The intent
	// must now be reclaimed, not dropped.
	mustNoErr(t, m.submitPatch(ctx, "alice", res.parentNS, core.Tuple{
		Name: res.tuple.Name, Time: m.now(), Deleted: true, Dir: true, NS: res.tuple.NS,
	}))
	m.gcSettle("alice", seq)
	drained, err = m.DrainGC(ctx)
	mustNoErr(t, err)
	if drained != 1 || reg.Counter("gcqueue.reclaimed") != 1 {
		t.Fatalf("post-ack drain = %d entries, reclaimed = %d, want 1 and 1",
			drained, reg.Counter("gcqueue.reclaimed"))
	}
	mustNoErr(t, m.FlushAll(ctx))
	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans after post-ack drain: %v", rep.Orphans)
	}
}

// TestGCQueueConcurrentRmdirDrain races rmdirs against a drain loop —
// the maintenance schedule the in-flight window exists for. Invariants:
// no intent is misclassified stale, every subtree is reclaimed, and the
// surviving tree is untouched.
func TestGCQueueConcurrentRmdirDrain(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
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
	const dirs = 6
	fs := m.FS("alice")
	for i := 0; i < dirs; i++ {
		dir := fmt.Sprintf("/d%d", i)
		mustNoErr(t, fs.Mkdir(ctx, dir))
		mustNoErr(t, fs.WriteFile(ctx, dir+"/f", []byte("x")))
	}
	mustNoErr(t, m.FlushAll(ctx))

	stop := make(chan struct{})
	var drains sync.WaitGroup
	drains.Add(1)
	go func() {
		defer drains.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := m.DrainGC(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var ops sync.WaitGroup
	for i := 0; i < dirs; i++ {
		ops.Add(1)
		go func(dir string) {
			defer ops.Done()
			if err := fs.Rmdir(ctx, dir); err != nil {
				t.Error(err)
			}
		}(fmt.Sprintf("/d%d", i))
	}
	ops.Wait()
	close(stop)
	drains.Wait()

	// Deferred probes leave entries behind; once every window is settled a
	// few passes must reclaim them all, with none dropped as stale.
	for i := 0; i < dirs && reg.Counter("gcqueue.reclaimed") < dirs; i++ {
		_, err := m.DrainGC(ctx)
		mustNoErr(t, err)
	}
	if got := reg.Counter("gcqueue.stale"); got != 0 {
		t.Fatalf("%d in-flight intents misclassified stale", got)
	}
	if got := reg.Counter("gcqueue.reclaimed"); got != dirs {
		t.Fatalf("reclaimed = %d, want %d", got, dirs)
	}
	mustNoErr(t, m.FlushAll(ctx))
	assertKeepIntact(t, m)
	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("stranded objects after converged drains: %v", rep.Orphans)
	}
	snap, err := m.GCQueueSnapshot(ctx)
	mustNoErr(t, err)
	if snap.Pending != 0 {
		t.Fatalf("pending = %d after convergence", snap.Pending)
	}
}

// TestGCQueueConcurrentRecover shares the GC mirror between four
// clients' Rmdirs, maintenance and restarts: a Recover drops the mirror
// while intents are being reserved, and the next use reloads it. Every
// Rmdir must succeed, and once quiet only the kept tree is left.
func TestGCQueueConcurrentRecover(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	m := newMW(t, newCluster(t), 1, func(cfg *Config) { cfg.GCQueue = true })
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	fs := m.FS("alice")
	stop := make(chan struct{})
	var restarts sync.WaitGroup
	restarts.Add(1)
	go func() {
		defer restarts.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.MaintainOnce(ctx)
				m.Recover()
			}
		}
	}()
	const clients, rounds = 4, 20
	var ops sync.WaitGroup
	for g := 0; g < clients; g++ {
		ops.Add(1)
		go func(g int) {
			defer ops.Done()
			for r := 0; r < rounds; r++ {
				dir := fmt.Sprintf("/g%d-%d", g, r)
				err := fs.Mkdir(ctx, dir)
				if err == nil {
					err = fs.WriteFile(ctx, dir+"/f", []byte(dir))
				}
				if err == nil {
					err = fs.Rmdir(ctx, dir)
				}
				if err != nil {
					t.Errorf("%s: %v", dir, err)
					return
				}
			}
		}(g)
	}
	ops.Wait()
	close(stop)
	restarts.Wait()

	mustNoErr(t, m.FlushAll(ctx))
	_, err := m.DrainGC(ctx)
	mustNoErr(t, err)
	if names := listNames(t, m, "/"); !slices.Equal(names, []string{"keep"}) {
		t.Fatalf("root after the Rmdirs = %v, want [keep]", names)
	}
	assertKeepIntact(t, m)
}

// TestGCQueueRestartResumesPending simulates a full process loss: the
// rmdir lands, the process dies before any drain, and a brand-new
// middleware (same node number, empty caches) picks the queue up from
// the durable index alone.
func TestGCQueueRestartResumesPending(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1, func(cfg *Config) {
		cfg.EagerGC = false
		cfg.GCQueue = true
	})
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FlushAll(ctx))
	mustNoErr(t, m.FS("alice").Rmdir(ctx, "/zap"))

	reg := metrics.NewRegistry()
	m2 := newMW(t, c, 1, func(cfg *Config) {
		cfg.EagerGC = false
		cfg.GCQueue = true
		cfg.Metrics = reg
	})
	drained, err := m2.DrainGC(ctx)
	mustNoErr(t, err)
	if drained != 1 {
		t.Fatalf("restarted node drained %d, want 1", drained)
	}
	mustNoErr(t, m2.FlushAll(ctx))
	assertKeepIntact(t, m2)
	rep, err := m2.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans: %v", rep.Orphans)
	}
}

// TestGCQueueBracketsEagerGC covers EagerGC+GCQueue: the intent is
// enqueued before the eager walk, so a walk that dies partway (targeted
// fault on the subtree's deletes) leaves a queued entry that the next
// drain finishes — the detached-context audit of ops.go made durable.
func TestGCQueueBracketsEagerGC(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	eng := chaos.New(chaos.Plan{Seed: 7}, reg)
	eng.Bind(c)
	cs := eng.Store(c)
	m, err := New(Config{Store: cs, Node: 1, EagerGC: true, GCQueue: true, Metrics: reg})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FlushAll(ctx))

	// Kill the eager walk partway: deletes inside the doomed subtree fail.
	res, err := m.resolve(ctx, "alice", "/zap/sub")
	mustNoErr(t, err)
	cs.FailOn(chaos.OpDelete, res.tuple.NS)
	if err := m.FS("alice").Rmdir(ctx, "/zap"); err == nil {
		t.Fatal("rmdir succeeded despite injected walk failure")
	}
	if reg.Counter("gcqueue.enqueued") != 1 {
		t.Fatal("eager rmdir did not enqueue its intent first")
	}
	if reg.Counter("gcqueue.reclaimed") != 0 {
		t.Fatal("failed walk must not dequeue")
	}
	// Process restarts, fault heals, the drain finishes the job.
	cs.FailOn(chaos.OpDelete, "")
	m.Recover()
	drained, err := m.DrainGC(ctx)
	mustNoErr(t, err)
	if drained != 1 {
		t.Fatalf("drained = %d, want 1", drained)
	}
	mustNoErr(t, m.FlushAll(ctx))
	assertKeepIntact(t, m)
	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans: %v", rep.Orphans)
	}
}

// TestGCQueueEagerDequeueKeepsEarlierIntent: an eager dequeue moves the
// cursor only past its own sequence when nothing earlier is pending. A
// failed eager walk leaves sequence 1 queued; the later RMDIR's eager
// dequeue of sequence 2 must not carry the cursor past it, or no drain
// would ever probe the surviving entry.
func TestGCQueueEagerDequeueKeepsEarlierIntent(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	eng := chaos.New(chaos.Plan{Seed: 7}, reg)
	eng.Bind(c)
	cs := eng.Store(c)
	m, err := New(Config{Store: cs, Node: 1, EagerGC: true, GCQueue: true, Metrics: reg})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FS("alice").Mkdir(ctx, "/other"))
	mustNoErr(t, m.FlushAll(ctx))

	res, err := m.resolve(ctx, "alice", "/zap/sub")
	mustNoErr(t, err)
	cs.FailOn(chaos.OpDelete, res.tuple.NS)
	if err := m.FS("alice").Rmdir(ctx, "/zap"); err == nil {
		t.Fatal("rmdir succeeded despite injected walk failure")
	}
	cs.FailOn(chaos.OpDelete, "")
	mustNoErr(t, m.FS("alice").Rmdir(ctx, "/other"))
	if got := reg.Counter("gcqueue.reclaimed"); got != 1 {
		t.Fatalf("reclaimed = %d after the eager rmdir, want 1", got)
	}
	drained, err := m.DrainGC(ctx)
	mustNoErr(t, err)
	if drained != 1 {
		t.Fatalf("drained = %d, want 1: the failed walk's entry was skipped", drained)
	}
	mustNoErr(t, m.FlushAll(ctx))
	assertKeepIntact(t, m)
	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans: %v", rep.Orphans)
	}
}

// cancelAwareStore fails a GC-queue write whose context is cancelled, as
// a network client would; every other request ignores cancellation.
type cancelAwareStore struct{ objstore.Store }

func (s cancelAwareStore) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	if k := keyKind(name); (k == core.KeyGCEntry || k == core.KeyGCIndex) && ctx.Err() != nil {
		return ctx.Err()
	}
	return s.Store.Put(ctx, name, data, meta)
}

// TestGCQueueIntentIgnoresCallerCancellation: once RMDIR commits to its
// tombstone the intent must land, so a caller that has already given up
// still gets a queued, drainable entry.
func TestGCQueueIntentIgnoresCallerCancellation(t *testing.T) {
	c := newCluster(t)
	m, err := New(Config{Store: cancelAwareStore{c}, Node: 1, GCQueue: true})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	setupKeep(t, m)
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FlushAll(ctx))

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	mustNoErr(t, m.FS("alice").Rmdir(cancelled, "/zap"))
	drained, err := m.DrainGC(ctx)
	mustNoErr(t, err)
	if drained != 1 {
		t.Fatalf("drained = %d, want the cancelled rmdir's intent", drained)
	}
	mustNoErr(t, m.FlushAll(ctx))
	assertKeepIntact(t, m)
	rep, err := m.Scrub(ctx, clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans: %v", rep.Orphans)
	}
}

// TestGCQueueDeleteAccountAsync: account deletion with the queue records
// the intent, deletes the root record (the acknowledgment), and leaves
// the tree for the drain.
func TestGCQueueDeleteAccountAsync(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1, func(cfg *Config) {
		cfg.EagerGC = false
		cfg.GCQueue = true
	})
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FlushAll(ctx))

	mustNoErr(t, m.DeleteAccount(ctx, "alice"))
	if ok, err := m.AccountExists(ctx, "alice"); ok || err != nil {
		t.Fatalf("AccountExists after queued deletion = %v, %v", ok, err)
	}
	drained, err := m.DrainGC(ctx)
	mustNoErr(t, err)
	if drained != 1 {
		t.Fatalf("drained = %d, want 1", drained)
	}
	// Everything gone but the queue index object.
	if got := clusterNames(c); len(got) != 1 || got[0][0] != '#' {
		t.Fatalf("leftover objects: %v", got)
	}
}
