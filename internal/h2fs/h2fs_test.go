package h2fs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/gossip"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// newCluster returns a zero-cost test cluster.
func newCluster(t testing.TB) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newMW(t testing.TB, c *cluster.Cluster, node int, opts ...func(*Config)) *Middleware {
	t.Helper()
	cfg := Config{Store: c, Node: node, Profile: c.Profile(), EagerGC: true}
	for _, o := range opts {
		o(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newFS(t testing.TB) *AccountFS {
	t.Helper()
	m := newMW(t, newCluster(t), 1)
	if err := m.CreateAccount(context.Background(), "alice"); err != nil {
		t.Fatal(err)
	}
	return m.FS("alice")
}

// newProbedMW is newMW on a fresh cluster behind fstest.Probe, with
// account alice created on fstest.Context: the middleware every
// fstest.Run and RunDifferential caller in this package drives, so each
// store call it makes must carry the suite's context.
func newProbedMW(t testing.TB, opts ...func(*Config)) *Middleware {
	t.Helper()
	probe := func(cfg *Config) { cfg.Store = fstest.Probe(t, cfg.Store) }
	m := newMW(t, newCluster(t), 1, append(opts, probe)...)
	mustNoErr(t, m.CreateAccount(fstest.Context(), "alice"))
	return m
}

func TestConformance(t *testing.T) {
	fstest.Run(t, func(t *testing.T) fsapi.FileSystem { return newProbedMW(t).FS("alice") })
}

// TestConformanceAllFeatures runs the suite with every option that changes
// how h2fs schedules or shares work switched on at once — sharded rings,
// the durable GC queue, the pipelined subtree engine, a one-descriptor
// cache and a maintenance loop flushing and draining beside the
// operations — so ConcurrentMix under -race reaches their shared state.
// The retry and metrics rings are on every middleware, so TestConformance
// runs them too.
func TestConformanceAllFeatures(t *testing.T) {
	fstest.Run(t, func(t *testing.T) fsapi.FileSystem {
		m := newProbedMW(t, func(cfg *Config) {
			cfg.Profile.DirShardThreshold = 3
			cfg.GCQueue = true
			cfg.SubtreeFanout = 4
			cfg.DescCacheLimit = 1
		})
		ctx, cancel := context.WithCancel(fstest.Context())
		done := m.StartMaintenance(ctx, time.Millisecond)
		t.Cleanup(func() {
			cancel()
			<-done
		})
		return m.FS("alice")
	})
}

func TestNewRequiresStore(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without store succeeded")
	}
}

func TestCreateAccountValidation(t *testing.T) {
	m := newMW(t, newCluster(t), 1)
	ctx := context.Background()
	if err := m.CreateAccount(ctx, "bad|name"); err == nil {
		t.Fatal("invalid account accepted")
	}
	if err := m.CreateAccount(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateAccount(ctx, "alice"); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("duplicate account = %v, want ErrExists", err)
	}
	alice, errA := m.AccountExists(ctx, "alice")
	bob, errB := m.AccountExists(ctx, "bob")
	if !alice || bob || errA != nil || errB != nil {
		t.Fatalf("AccountExists = %v, %v (alice), %v, %v (bob)", alice, errA, bob, errB)
	}
}

func TestOpsOnMissingAccount(t *testing.T) {
	m := newMW(t, newCluster(t), 1)
	fs := m.FS("ghost")
	ctx := context.Background()
	if err := fs.Mkdir(ctx, "/x"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("Mkdir on missing account = %v", err)
	}
	if _, err := fs.Stat(ctx, "/"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("Stat(/) on missing account = %v", err)
	}
}

// TestDeleteAccountReclaimsEverything: with the GC queue off, account
// deletion walks the whole tree before the root record goes, with or
// without EagerGC, and bills that walk to the caller.
func TestDeleteAccountReclaimsEverything(t *testing.T) {
	bills := map[bool]time.Duration{}
	for _, eager := range []bool{true, false} {
		t.Run(fmt.Sprintf("EagerGC=%v", eager), func(t *testing.T) {
			c, err := cluster.New(cluster.Config{Profile: cluster.SwiftProfile()})
			mustNoErr(t, err)
			m := newMW(t, c, 1, func(cfg *Config) { cfg.EagerGC = eager })
			ctx := context.Background()
			mustNoErr(t, m.CreateAccount(ctx, "alice"))
			fs := m.FS("alice")
			mustNoErr(t, fs.Mkdir(ctx, "/docs"))
			mustNoErr(t, fs.Mkdir(ctx, "/docs/sub"))
			mustNoErr(t, fs.WriteFile(ctx, "/docs/a", []byte("1")))
			mustNoErr(t, fs.WriteFile(ctx, "/docs/sub/b", []byte("2")))
			mustNoErr(t, m.FlushAll(ctx))
			tr := vclock.NewTracker()
			mustNoErr(t, m.DeleteAccount(vclock.With(ctx, tr), "alice"))
			if st := c.Stats(); st.Objects != 0 {
				t.Fatalf("%d objects left after account deletion", st.Objects)
			}
			if tr.Elapsed() <= c.Profile().Delete {
				t.Fatalf("caller billed %v, want the walk on top of the root delete (%v)", tr.Elapsed(), c.Profile().Delete)
			}
			bills[eager] = tr.Elapsed()
		})
	}
	if bills[true] != bills[false] {
		t.Fatalf("caller bill differs with EagerGC: %v vs %v", bills[true], bills[false])
	}
}

func mustNoErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestRelativeAccessQuickMethod(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/home"))
	mustNoErr(t, fs.WriteFile(ctx, "/home/file1", []byte("quick")))
	// Learn the namespace through resolution, then access relatively.
	res, err := m.resolve(ctx, "alice", "/home/file1")
	mustNoErr(t, err)
	data, _, err := m.AccessRelative(ctx, "alice", res.parentNS+"::file1")
	mustNoErr(t, err)
	if string(data) != "quick" {
		t.Fatalf("relative access = %q", data)
	}
	if _, _, err := m.AccessRelative(ctx, "alice", "malformed"); !errors.Is(err, fsapi.ErrInvalidPath) {
		t.Fatalf("malformed relative path = %v", err)
	}
}

func TestRelativeAccessIsO1(t *testing.T) {
	c, err := cluster.New(cluster.Config{Profile: cluster.SwiftProfile()})
	mustNoErr(t, err)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	path := ""
	for i := 0; i < 10; i++ {
		path += fmt.Sprintf("/d%d", i)
		mustNoErr(t, fs.Mkdir(ctx, path))
	}
	mustNoErr(t, fs.WriteFile(ctx, path+"/deep", []byte("x")))
	res, err := m.resolve(ctx, "alice", path+"/deep")
	mustNoErr(t, err)

	tr := vclock.NewTracker()
	_, _, err = m.AccessRelative(vclock.With(ctx, tr), "alice", res.parentNS+"::deep")
	mustNoErr(t, err)
	// One GET regardless of depth.
	if got, want := tr.Elapsed(), c.Profile().Get+2*time.Microsecond; got > want {
		t.Fatalf("relative access charged %v, want <= %v (one GET)", got, want)
	}
}

func TestFileAccessCostLinearInDepth(t *testing.T) {
	// Figure 13: H2's full-path access time is proportional to d.
	c, err := cluster.New(cluster.Config{Profile: cluster.SwiftProfile()})
	mustNoErr(t, err)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	path := ""
	costs := map[int]time.Duration{}
	for d := 1; d <= 12; d++ {
		if d < 12 {
			path += fmt.Sprintf("/d%d", d)
			mustNoErr(t, fs.Mkdir(ctx, path))
		} else {
			mustNoErr(t, fs.WriteFile(ctx, path+"/leaf", []byte("x")))
			path += "/leaf"
		}
		tr := vclock.NewTracker()
		if _, err := fs.Stat(vclock.With(ctx, tr), path); err != nil {
			t.Fatal(err)
		}
		costs[d] = tr.Elapsed()
	}
	get := c.Profile().Get
	for d := 2; d <= 12; d++ {
		delta := costs[d] - costs[d-1]
		// Each extra level adds roughly one ring consult.
		if delta < get/2 || delta > 2*get+c.Profile().Head {
			t.Fatalf("depth %d -> %d added %v, want ~%v", d-1, d, delta, get)
		}
	}
}

func TestMoveCostIndependentOfDirectorySize(t *testing.T) {
	// Figure 7: H2 MOVE is O(1) in the number of files in the directory.
	c, err := cluster.New(cluster.Config{Profile: cluster.SwiftProfile()})
	mustNoErr(t, err)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/dst"))

	moveCost := func(n int) time.Duration {
		dir := fmt.Sprintf("/dir%d", n)
		mustNoErr(t, fs.Mkdir(ctx, dir))
		for i := 0; i < n; i++ {
			mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("%s/f%d", dir, i), []byte("x")))
		}
		tr := vclock.NewTracker()
		mustNoErr(t, fs.Move(vclock.With(ctx, tr), dir, fmt.Sprintf("/dst/dir%d", n)))
		return tr.Elapsed()
	}
	small, large := moveCost(5), moveCost(500)
	if large > small*2 {
		t.Fatalf("MOVE cost grew with n: %v (n=5) vs %v (n=500)", small, large)
	}
}

func TestRmdirCostIndependentOfDirectorySize(t *testing.T) {
	// Figure 8: H2 RMDIR is O(1); GC runs out-of-band.
	c, err := cluster.New(cluster.Config{Profile: cluster.SwiftProfile()})
	mustNoErr(t, err)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	cost := func(n int) time.Duration {
		dir := fmt.Sprintf("/dir%d", n)
		mustNoErr(t, fs.Mkdir(ctx, dir))
		for i := 0; i < n; i++ {
			mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("%s/f%d", dir, i), []byte("x")))
		}
		tr := vclock.NewTracker()
		mustNoErr(t, fs.Rmdir(vclock.With(ctx, tr), dir))
		return tr.Elapsed()
	}
	small, large := cost(5), cost(500)
	if large > small*2 {
		t.Fatalf("RMDIR cost grew with n: %v vs %v", small, large)
	}
}

func TestPatchLifecycle(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	before := c.Stats().Objects
	mustNoErr(t, fs.WriteFile(ctx, "/a", []byte("1")))
	// A write adds the file object plus one patch object.
	if got := c.Stats().Objects - before; got != 2 {
		t.Fatalf("write created %d objects, want 2 (file + patch)", got)
	}
	mustNoErr(t, m.FlushAll(ctx))
	// Flush folds the patch into the ring object and deletes it.
	if got := c.Stats().Objects - before; got != 1 {
		t.Fatalf("after flush %d extra objects, want 1 (file only)", got)
	}
	// Flushing again is a no-op.
	st := c.Stats()
	mustNoErr(t, m.FlushAll(ctx))
	if c.Stats().Puts != st.Puts {
		t.Fatal("idempotent flush performed writes")
	}
}

func TestCrashRecoveryReplaysPatches(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()
	m1 := newMW(t, c, 1)
	mustNoErr(t, m1.CreateAccount(ctx, "alice"))
	fs1 := m1.FS("alice")
	mustNoErr(t, fs1.Mkdir(ctx, "/docs"))
	mustNoErr(t, fs1.WriteFile(ctx, "/docs/f", []byte("x")))
	// m1 "crashes" before flushing: its patches are in the store but the
	// ring objects are stale. A fresh middleware (same node number) must
	// recover the patch chains and serve the writes.
	m2 := newMW(t, c, 1)
	fs2 := m2.FS("alice")
	data, err := fs2.ReadFile(ctx, "/docs/f")
	mustNoErr(t, err)
	if string(data) != "x" {
		t.Fatalf("recovered read = %q", data)
	}
	// The recovered node must not reuse patch sequence numbers: another
	// write then flush must fold everything.
	mustNoErr(t, fs2.WriteFile(ctx, "/docs/g", []byte("y")))
	mustNoErr(t, m2.FlushAll(ctx))
	m3 := newMW(t, c, 2)
	entries, err := m3.FS("alice").List(ctx, "/docs", false)
	mustNoErr(t, err)
	if len(entries) != 2 {
		t.Fatalf("after recovery List = %+v", entries)
	}
}

func TestTwoMiddlewaresConvergeViaGossip(t *testing.T) {
	c := newCluster(t)
	bus := gossip.NewBus()
	ctx := context.Background()
	m1 := newMW(t, c, 1, func(cfg *Config) { cfg.Gossip = bus })
	m2 := newMW(t, c, 2, func(cfg *Config) { cfg.Gossip = bus })
	mustNoErr(t, m1.CreateAccount(ctx, "alice"))
	fs1, fs2 := m1.FS("alice"), m2.FS("alice")

	mustNoErr(t, fs1.Mkdir(ctx, "/shared"))
	mustNoErr(t, m1.FlushAll(ctx))
	bus.Pump(ctx)

	// Node 2 sees node 1's directory and adds to it.
	mustNoErr(t, fs2.WriteFile(ctx, "/shared/from2", []byte("2")))
	mustNoErr(t, m2.FlushAll(ctx))
	bus.Pump(ctx)

	mustNoErr(t, fs1.WriteFile(ctx, "/shared/from1", []byte("1")))
	mustNoErr(t, m1.FlushAll(ctx))
	bus.Pump(ctx)

	for _, fs := range []*AccountFS{fs1, fs2} {
		entries, err := fs.List(ctx, "/shared", false)
		mustNoErr(t, err)
		if len(entries) != 2 {
			t.Fatalf("node %d sees %d entries, want 2", fs.Middleware().Node(), len(entries))
		}
	}
}

func TestGossipConcurrentUpdatesSameDirectory(t *testing.T) {
	c := newCluster(t)
	bus := gossip.NewBus()
	ctx := context.Background()
	m1 := newMW(t, c, 1, func(cfg *Config) { cfg.Gossip = bus })
	m2 := newMW(t, c, 2, func(cfg *Config) { cfg.Gossip = bus })
	m3 := newMW(t, c, 3, func(cfg *Config) { cfg.Gossip = bus })
	mustNoErr(t, m1.CreateAccount(ctx, "alice"))
	mustNoErr(t, m1.FS("alice").Mkdir(ctx, "/d"))
	mustNoErr(t, m1.FlushAll(ctx))
	bus.Pump(ctx)

	// Concurrent writes to the same directory from all three nodes,
	// flushed in interleaved order.
	mws := []*Middleware{m1, m2, m3}
	for i, m := range mws {
		mustNoErr(t, m.FS("alice").WriteFile(ctx, fmt.Sprintf("/d/f%d", i), []byte("x")))
	}
	for _, m := range mws {
		mustNoErr(t, m.FlushAll(ctx))
	}
	bus.Pump(ctx)
	// One more flush round repairs any lost read-modify-write races
	// detected during gossip merge.
	for _, m := range mws {
		mustNoErr(t, m.FlushAll(ctx))
	}
	bus.Pump(ctx)

	for _, m := range mws {
		entries, err := m.FS("alice").List(ctx, "/d", false)
		mustNoErr(t, err)
		if len(entries) != 3 {
			t.Fatalf("node %d sees %d entries, want 3", m.Node(), len(entries))
		}
	}
}

// TestStalePeerCannotResurrectDeleted: a peer whose cached ring still
// holds a deleted file live, and which never hears of the delete, writes
// that stale tuple back with its next flush. The stored tombstone must
// still beat it, however much time has passed since the delete.
func TestStalePeerCannotResurrectDeleted(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	c := newCluster(t)
	bus := chaos.New(chaos.Plan{DropRate: 1}, nil).Gossip(gossip.NewBus())
	withBus := func(cfg *Config) { cfg.Clock, cfg.Gossip = clock, bus }
	m1, m2 := newMW(t, c, 1, withBus), newMW(t, c, 2, withBus)
	ctx := context.Background()
	mustNoErr(t, m1.CreateAccount(ctx, "alice"))
	write := func(m *Middleware, p string) {
		mustNoErr(t, m.FS("alice").WriteFile(ctx, p, []byte("x")))
		mustNoErr(t, m.FlushAll(ctx))
	}

	write(m1, "/f")
	if !slices.Contains(listNames(t, m2, "/"), "f") {
		t.Fatal("m2 does not list f before the delete")
	}
	mustNoErr(t, m1.FS("alice").Remove(ctx, "/f"))
	mustNoErr(t, m1.FlushAll(ctx)) // the advert is dropped
	now = now.Add(2 * time.Hour)
	write(m1, "/h")
	write(m2, "/g")

	for _, m := range []*Middleware{m2, newMW(t, c, 3)} {
		if got := listNames(t, m, "/"); slices.Contains(got, "f") {
			t.Fatalf("node %d lists %v: the deleted f came back", m.Node(), got)
		}
	}
}

func mustRootNS(t *testing.T, m *Middleware, account string) string {
	t.Helper()
	ns, err := m.rootNS(context.Background(), account)
	mustNoErr(t, err)
	return ns
}

func TestStorageAccountingAfterRmdirGC(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	baseline := c.Stats().Objects
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	mustNoErr(t, fs.Mkdir(ctx, "/d/sub"))
	for i := 0; i < 10; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/d/f%d", i), []byte("x")))
	}
	mustNoErr(t, fs.Rmdir(ctx, "/d"))
	mustNoErr(t, m.FlushAll(ctx))
	// Everything under /d must be reclaimed; only the root ring delta
	// (tombstone) remains inside the root ring object.
	if got := c.Stats().Objects; got != baseline {
		t.Fatalf("objects after rmdir+flush = %d, want %d", got, baseline)
	}
}

func TestListNamesOnlySingleConsult(t *testing.T) {
	c, err := cluster.New(cluster.Config{Profile: cluster.SwiftProfile()})
	mustNoErr(t, err)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	for i := 0; i < 50; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/d/f%02d", i), []byte("x")))
	}
	tr := vclock.NewTracker()
	_, err = fs.List(vclock.With(ctx, tr), "/d", false)
	mustNoErr(t, err)
	// Resolve (1 consult for /d) + ring read (1 consult): name-only LIST
	// must not touch the 50 children.
	if got, max := tr.Elapsed(), 3*c.Profile().Get; got > max {
		t.Fatalf("name-only LIST charged %v, want <= %v", got, max)
	}
	tr.Reset()
	_, err = fs.List(vclock.With(ctx, tr), "/d", true)
	mustNoErr(t, err)
	if got, min := tr.Elapsed(), 3*c.Profile().Head; got < min {
		t.Fatalf("detailed LIST charged only %v; expected per-child HEADs", got)
	}
}

func TestMoveDirectoryKeepsRelativeKeys(t *testing.T) {
	// The headline O(1) property: after moving a directory, the files
	// inside are still served from the same namespace-decorated keys.
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/old"))
	mustNoErr(t, fs.WriteFile(ctx, "/old/f", []byte("stay")))
	res, err := m.resolve(ctx, "alice", "/old")
	mustNoErr(t, err)
	nsBefore := res.tuple.NS
	puts := c.Stats().Puts
	mustNoErr(t, fs.Move(ctx, "/old", "/new"))
	// The move touches a bounded number of objects (entry + 2 patches),
	// never the n children.
	if got := c.Stats().Puts - puts; got > 4 {
		t.Fatalf("directory move performed %d puts, want <= 4", got)
	}
	res, err = m.resolve(ctx, "alice", "/new")
	mustNoErr(t, err)
	if res.tuple.NS != nsBefore {
		t.Fatal("move changed the directory namespace")
	}
	data, _, err := m.AccessRelative(ctx, "alice", nsBefore+"::f")
	mustNoErr(t, err)
	if string(data) != "stay" {
		t.Fatalf("relative access after move = %q", data)
	}
}

// TestDifferentialSuite runs the shared random-trace differential suite
// (in addition to the sidxfs-oracle test in differential_test.go).
func TestDifferentialSuite(t *testing.T) {
	fstest.RunDifferential(t, func(t *testing.T) fsapi.FileSystem { return newProbedMW(t).FS("alice") })
}

// A clock that steps back between a write and its remove must not leave
// the file live: the tombstone is stamped after the entry it deletes.
func TestClockStepBackKeepsRemove(t *testing.T) {
	tick := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { tick = tick.Add(time.Millisecond); return tick }
	m := newMW(t, newCluster(t), 1, func(c *Config) { c.Clock = clock })
	ctx := context.Background()
	if err := m.CreateAccount(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(ctx, "alice", "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	tick = tick.Add(-time.Minute)
	if err := m.Remove(ctx, "alice", "/f"); err != nil {
		t.Fatal(err)
	}
	entries, err := m.List(ctx, "alice", "/", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("List(/) after Remove(/f) = %v, want empty", entries)
	}
}
