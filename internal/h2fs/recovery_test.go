package h2fs

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/gossip"
	"github.com/h2cloud/h2cloud/internal/metrics"
)

// TestCrashRestartReconvergesAgainstOracle drives two middlewares through
// a seeded chaos schedule — transient store errors, node crashes and
// restarts, dropped and delayed gossip — while mirroring every
// acknowledged operation into the fstest oracle model. After the cluster
// heals (nodes restarted, anti-entropy Repair, flushes, gossip drained)
// and both middlewares restart (Recover), every NameRing must have
// reconverged: both views must equal the oracle's tree, file contents
// included. Operations the chaos made fail are simply not acknowledged;
// nothing acknowledged may be lost.
func TestCrashRestartReconvergesAgainstOracle(t *testing.T) {
	now := time.Unix(1_600_000_000, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile(), Clock: clock})
	mustNoErr(t, err)
	devs := c.Ring().DeviceIDs()

	reg := metrics.NewRegistry()
	eng := chaos.New(chaos.Plan{
		Seed:      97,
		ErrRate:   0.10,
		DropRate:  0.25,
		DelayRate: 0.25,
		Events: []chaos.Event{
			{Step: 40, Node: devs[0], Down: true},
			{Step: 80, Node: devs[1], Down: true},
			{Step: 120, Node: devs[0], Down: false},
			{Step: 170, Node: devs[1], Down: false},
		},
	}, reg)
	eng.Bind(c)
	cs := eng.Store(c)
	inner := gossip.NewBus()
	bus := eng.Gossip(inner)

	mws := make([]*Middleware, 2)
	for i := range mws {
		m, err := New(Config{
			Store: cs, Node: i + 1, Gossip: bus, Clock: clock,
			EagerGC: true, Metrics: reg,
		})
		mustNoErr(t, err)
		mws[i] = m
	}
	ctx := context.Background()
	mustNoErr(t, mws[0].CreateAccount(ctx, "alice"))

	oracle := fstest.NewModel()
	content := func(p string) []byte { return []byte("content of " + p) }

	// Seeded workload: unique-path mkdirs and writes, alternating between
	// the middlewares, with the chaos schedule stepping once per op. Every
	// path is written at most once, so a failed (unacknowledged) operation
	// leaves the tree untouched and the oracle simply skips it.
	var ackedDirs []string
	acked, failed := 0, 0
	for i := 0; i < 200; i++ {
		eng.Step()
		m := mws[i%len(mws)]
		if i%8 == 0 {
			p := fmt.Sprintf("/d%02d", i)
			if err := m.FS("alice").Mkdir(ctx, p); err == nil {
				mustNoErr(t, oracle.Mkdir(ctx, p))
				ackedDirs = append(ackedDirs, p)
				acked++
			} else {
				failed++
			}
			continue
		}
		dir := "/"
		if len(ackedDirs) > 0 {
			dir = ackedDirs[i%len(ackedDirs)]
		}
		p := fmt.Sprintf("%s/f%03d", dir, i)
		if dir == "/" {
			p = fmt.Sprintf("/f%03d", i)
		}
		if err := m.FS("alice").WriteFile(ctx, p, content(p)); err == nil {
			mustNoErr(t, oracle.WriteFile(ctx, p, content(p)))
			acked++
		} else {
			failed++
		}
		if i%10 == 9 {
			inner.Pump(ctx)
		}
	}
	if failed == 0 {
		t.Fatal("chaos schedule injected no failures; test exercises nothing")
	}
	if acked == 0 {
		t.Fatal("no operation was acknowledged")
	}
	if reg.Counter("retry.attempts") == 0 {
		t.Fatal("retry layer never engaged under 10% error rate")
	}
	if c, r := reg.Counter("chaos.crashes"), reg.Counter("chaos.restarts"); c != 2 || r != 2 {
		t.Fatalf("schedule applied %d crashes / %d restarts, want 2/2", c, r)
	}

	// Heal: fault window closes, all nodes back up, anti-entropy, flushes,
	// gossip drained.
	eng.SetErrRate(0)
	for _, id := range devs {
		c.SetNodeDown(id, false)
	}
	for round := 0; round < 4; round++ {
		c.Repair(context.Background(), 1)
		for _, m := range mws {
			mustNoErr(t, m.FlushAll(ctx))
		}
		bus.ReleaseDelayed()
		inner.Pump(ctx)
	}

	// Both middlewares restart: caches drop, rings reload from the store
	// with peer patch replay. Their trees must now equal the oracle's.
	want, err := fsapi.Tree(ctx, oracle, "/")
	mustNoErr(t, err)
	for i, m := range mws {
		m.Recover()
		got, err := fsapi.Tree(ctx, m.FS("alice"), "/")
		mustNoErr(t, err)
		for p, w := range want {
			g, ok := got[p]
			if !ok {
				t.Fatalf("mw%d lost acknowledged entry %s", i+1, p)
			}
			if g.IsDir != w.IsDir {
				t.Fatalf("mw%d %s: IsDir=%v, oracle %v", i+1, p, g.IsDir, w.IsDir)
			}
			if !w.IsDir {
				data, err := m.FS("alice").ReadFile(ctx, p)
				mustNoErr(t, err)
				if !bytes.Equal(data, content(p)) {
					t.Fatalf("mw%d %s content = %q", i+1, p, data)
				}
			}
		}
		for p := range got {
			if _, ok := want[p]; !ok {
				t.Fatalf("mw%d has entry %s the oracle never acknowledged", i+1, p)
			}
		}
	}
}

// TestColdStatWithANodeDown: after a restart with one storage node of
// eight down, every cold Stat loads two rings and probes each chain's
// end, a GET that has to miss. A miss the down node took part in is
// still a miss, so every Stat succeeds, whichever node is down.
func TestColdStatWithANodeDown(t *testing.T) {
	now := time.Unix(1_600_000_000, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile(), Clock: clock})
	mustNoErr(t, err)
	m, err := New(Config{Store: c, Node: 1, Clock: clock})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "u"))
	const dirs = 64
	for i := 0; i < dirs; i++ {
		mustNoErr(t, m.Mkdir(ctx, "u", fmt.Sprintf("/d%02d", i)))
		mustNoErr(t, m.WriteFile(ctx, "u", fmt.Sprintf("/d%02d/f", i), []byte("x")))
	}
	mustNoErr(t, m.FlushAll(ctx))
	for _, id := range c.Ring().DeviceIDs() {
		m.Recover()
		c.SetNodeDown(id, true)
		for i := 0; i < dirs; i++ {
			if _, err := m.Stat(ctx, "u", fmt.Sprintf("/d%02d/f", i)); err != nil {
				t.Errorf("cold stat with node %d down: %v", id, err)
			}
		}
		c.SetNodeDown(id, false)
	}
}
