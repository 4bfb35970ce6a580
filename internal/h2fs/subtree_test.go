package h2fs

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// constClock pins every timestamp, so two runs of the same scenario mint
// byte-identical tuples and rings regardless of wall time or schedule.
func constClock() time.Time { return time.Unix(1469346604, 539000000) }

// dumpCluster renders the full replicated object state canonically:
// node by node (ascending id), name-sorted, with content hash, size and
// sorted user metadata.
func dumpCluster(c *cluster.Cluster) string {
	var b strings.Builder
	for id := 0; ; id++ {
		n := c.Node(id)
		if n == nil {
			break
		}
		names := n.Names()
		sort.Strings(names)
		fmt.Fprintf(&b, "node %d (%d objects)\n", id, len(names))
		for _, name := range names {
			info, err := n.Head(name)
			if err != nil {
				fmt.Fprintf(&b, "  %s ERR %v\n", name, err)
				continue
			}
			metaKeys := make([]string, 0, len(info.Meta))
			for k := range info.Meta {
				metaKeys = append(metaKeys, k)
			}
			sort.Strings(metaKeys)
			fmt.Fprintf(&b, "  %s etag=%s size=%d mod=%d", name, info.ETag, info.Size, info.LastModified.UnixNano())
			for _, k := range metaKeys {
				fmt.Fprintf(&b, " %s=%s", k, info.Meta[k])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// buildSubtreeFixture creates the shared test tree under /src: depth-2
// directories, plain files, and one chunked file.
func buildSubtreeFixture(t testing.TB, m *Middleware, account string) {
	t.Helper()
	ctx := context.Background()
	if err := m.CreateAccount(ctx, account); err != nil {
		t.Fatal(err)
	}
	if err := m.Mkdir(ctx, account, "/src"); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		dir := fmt.Sprintf("/src/d%d", d)
		if err := m.Mkdir(ctx, account, dir); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 4; f++ {
			p := fmt.Sprintf("%s/f%d", dir, f)
			if err := m.WriteFile(ctx, account, p, []byte(strings.Repeat(p, 3))); err != nil {
				t.Fatal(err)
			}
		}
		sub := dir + "/sub"
		if err := m.Mkdir(ctx, account, sub); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteFile(ctx, account, sub+"/leaf", []byte("leaf:"+sub)); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("chunky"), 700) // 4200 bytes -> 5 segments
	if err := m.WriteFileChunked(ctx, account, "/src/big", bytes.NewReader(big), 1024); err != nil {
		t.Fatal(err)
	}
}

// newSubtreeSystem builds a paper-profile system with the given subtree
// fanout and a pinned clock.
func newSubtreeSystem(t testing.TB, fanout int) (*cluster.Cluster, *Middleware) {
	t.Helper()
	profile := cluster.SwiftProfile()
	c, err := cluster.New(cluster.Config{Profile: profile, Clock: constClock})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Store: c, Node: 1, Profile: profile, SubtreeFanout: fanout, Clock: constClock, EagerGC: true})
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

// TestCopyPipelinedMatchesSequential is the core equivalence claim of the
// pipelined walker: cranking SubtreeFanout changes only the virtual cost
// of a subtree COPY, never the bytes it leaves in the cloud.
func TestCopyPipelinedMatchesSequential(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	ctx := context.Background()
	run := func(fanout int) (string, time.Duration) {
		c, m := newSubtreeSystem(t, fanout)
		buildSubtreeFixture(t, m, "alice")
		tr := vclock.NewTracker()
		if err := m.Copy(vclock.With(ctx, tr), "alice", "/src", "/dst"); err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		// Flush pending ring state so the dump covers identical flush
		// points in both runs.
		if err := m.FlushAll(ctx); err != nil {
			t.Fatalf("fanout %d: flush: %v", fanout, err)
		}
		return dumpCluster(c), tr.Elapsed()
	}
	seqDump, seqCost := run(1)
	pipeDump, pipeCost := run(16)
	if seqDump != pipeDump {
		t.Fatalf("pipelined copy left different cloud state than sequential copy:\n--- sequential ---\n%s\n--- pipelined ---\n%s", seqDump, pipeDump)
	}
	if pipeCost >= seqCost {
		t.Fatalf("pipelined copy cost %v, not cheaper than sequential %v", pipeCost, seqCost)
	}
	t.Logf("copy: sequential %v, pipelined %v (%.1fx)", seqCost, pipeCost, float64(seqCost)/float64(pipeCost))
}

// TestGCPipelinedMatchesSequential: same claim for namespace GC through
// RMDIR with eager reclamation.
func TestGCPipelinedMatchesSequential(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	ctx := context.Background()
	run := func(fanout int) string {
		c, m := newSubtreeSystem(t, fanout)
		buildSubtreeFixture(t, m, "alice")
		if err := m.Rmdir(ctx, "alice", "/src"); err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if err := m.FlushAll(ctx); err != nil {
			t.Fatalf("fanout %d: flush: %v", fanout, err)
		}
		return dumpCluster(c)
	}
	if seq, pipe := run(1), run(16); seq != pipe {
		t.Fatalf("pipelined GC left different cloud state than sequential GC:\n--- sequential ---\n%s\n--- pipelined ---\n%s", seq, pipe)
	}
}

// TestCopyIsDeterministicAcrossSchedules re-runs the same pipelined copy
// and demands byte-identical cloud state every time — the walker's
// determinism invariant (derived UUIDs, one shared timestamp, label-keyed
// error selection) under real goroutine scheduling.
func TestCopyIsDeterministicAcrossSchedules(t *testing.T) {
	ctx := context.Background()
	var want string
	for run := 0; run < 5; run++ {
		c, m := newSubtreeSystem(t, 16)
		buildSubtreeFixture(t, m, "alice")
		if err := m.Copy(ctx, "alice", "/src", "/dst"); err != nil {
			t.Fatal(err)
		}
		if err := m.FlushAll(ctx); err != nil {
			t.Fatal(err)
		}
		got := dumpCluster(c)
		if run == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d produced different cloud state", run)
		}
	}
}

// TestConcurrentSubtreeOps hammers COPY, GC and detailed LIST over one
// shared tree from concurrent goroutines with the pipelined engine
// enabled — the -race stress for the walker, the batch paths and the
// descriptor cache together.
func TestConcurrentSubtreeOps(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	profile := cluster.SwiftProfile()
	c, err := cluster.New(cluster.Config{Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Store: c, Node: 1, Profile: profile, SubtreeFanout: 8, EagerGC: true})
	if err != nil {
		t.Fatal(err)
	}
	buildSubtreeFixture(t, m, "alice")
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := fmt.Sprintf("/copy%d", i)
			if err := m.Copy(ctx, "alice", "/src", dst); err != nil {
				errs <- fmt.Errorf("copy %s: %w", dst, err)
				return
			}
			if err := m.Rmdir(ctx, "alice", dst); err != nil {
				errs <- fmt.Errorf("rmdir %s: %w", dst, err)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, _, err := m.ListPage(ctx, "alice", "/src", true, "", 0); err != nil {
					errs <- fmt.Errorf("list: %w", err)
					return
				}
				if _, err := m.ReadFile(ctx, "alice", "/src/big"); err != nil {
					errs <- fmt.Errorf("read big: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The shared source must have survived intact.
	entries, _, err := m.ListPage(ctx, "alice", "/src", true, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 { // d0 d1 d2 big
		t.Fatalf("/src has %d entries after the stress, want 4", len(entries))
	}
}

// TestChaosSeededBatchDeterminism runs a chaos-faulted workload over the
// batched and pipelined paths twice from identical seeds and demands the
// two runs agree on everything observable: per-phase virtual times,
// fault/retry counters, and the byte-exact cloud state. Fault decisions
// key on object names (never on schedule), timestamps are pinned, and
// batch windows fold through the order-insensitive makespan — this test
// is what holds all three properties together.
func TestChaosSeededBatchDeterminism(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	scenario := func() string {
		profile := cluster.SwiftProfile()
		c, err := cluster.New(cluster.Config{Profile: profile, Clock: constClock})
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		// Faults stay off while the fixture is built; the measured phases
		// below run with the error rate switched on.
		eng := chaos.New(chaos.Plan{
			Seed:      42,
			SpikeRate: 0.10,
			Spike:     20 * time.Millisecond,
		}, reg)
		m, err := New(Config{
			Store:         eng.Store(c),
			Node:          1,
			Profile:       profile,
			Clock:         constClock,
			EagerGC:       true,
			SubtreeFanout: 16,
			Metrics:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		buildSubtreeFixture(t, m, "alice")
		eng.SetErrRate(0.04)

		var b strings.Builder
		phase := func(name string, fn func(ctx context.Context) error) {
			tr := vclock.NewTracker()
			err := fn(vclock.With(context.Background(), tr))
			fmt.Fprintf(&b, "phase %s: vtime=%v err=%v\n", name, tr.Elapsed(), err)
		}
		phase("copy", func(ctx context.Context) error {
			return m.Copy(ctx, "alice", "/src", "/dst")
		})
		phase("list-detail", func(ctx context.Context) error {
			_, _, err := m.ListPage(ctx, "alice", "/src", true, "", 0)
			return err
		})
		phase("read-chunked", func(ctx context.Context) error {
			_, err := m.ReadFile(ctx, "alice", "/src/big")
			return err
		})
		phase("gc", func(ctx context.Context) error {
			return m.Rmdir(ctx, "alice", "/src")
		})
		phase("flush", m.FlushAll)

		for _, cs := range reg.Counters() {
			fmt.Fprintf(&b, "counter %s=%d\n", cs.Name, cs.Value)
		}
		b.WriteString(dumpCluster(c))
		return b.String()
	}
	first := scenario()
	second := scenario()
	if first != second {
		t.Fatalf("same-seed chaos runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}
	if !strings.Contains(first, "chaos.faults") && !strings.Contains(first, "chaos.spikes") {
		t.Fatalf("scenario injected no faults or spikes; digest:\n%s", first)
	}
}
