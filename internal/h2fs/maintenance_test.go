package h2fs

import (
	"context"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/storemw"
)

func TestStartMaintenanceFlushesPeriodically(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx, cancel := context.WithCancel(context.Background())
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.WriteFile(ctx, "/f", []byte("x"))) // leaves one patch object

	before := c.Stats().Objects // file + patch
	done := m.StartMaintenance(ctx, 10*time.Millisecond)

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Objects == before-1 { // patch folded and deleted
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Stats().Objects; got != before-1 {
		t.Fatalf("maintenance did not fold the patch: %d objects, want %d", got, before-1)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("maintenance loop did not exit on cancel")
	}
}

func TestStartMaintenanceFinalFlushOnShutdown(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx, cancel := context.WithCancel(context.Background())
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	done := m.StartMaintenance(ctx, time.Hour) // never ticks
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/f", []byte("x")))
	before := c.Stats().Objects
	cancel() // shutdown triggers the final flush
	<-done
	if got := c.Stats().Objects; got != before-1 {
		t.Fatalf("final flush missing: %d objects, want %d", got, before-1)
	}
}

// TestStartMaintenanceTicksDrainsQueue drives the loop through the
// injected tick source: no wall-clock polling, one deterministic pass
// per tick. The unbuffered channel makes completion observable — the
// second send is only received once the first pass has finished.
func TestStartMaintenanceTicksDrainsQueue(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	c := newCluster(t)
	reg := metrics.NewRegistry()
	m := newMW(t, c, 1, func(cfg *Config) {
		cfg.EagerGC = false
		cfg.GCQueue = true
		cfg.Metrics = reg
	})
	ctx, cancel := context.WithCancel(context.Background())
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FlushAll(ctx))
	mustNoErr(t, m.FS("alice").Rmdir(ctx, "/zap"))

	ticks := make(chan time.Time)
	done := m.StartMaintenanceTicks(ctx, ticks)
	ticks <- time.Time{} // first pass: flush the tombstone patch, drain the queue
	ticks <- time.Time{} // received only after the first pass completed
	if got := reg.Counter("gcqueue.reclaimed"); got != 1 {
		t.Fatalf("reclaimed after tick = %d, want 1", got)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("maintenance loop did not exit on cancel")
	}
	rep, err := m.Scrub(context.Background(), clusterNames(c), false)
	mustNoErr(t, err)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans after ticked maintenance: %v", rep.Orphans)
	}
}

// TestMaintainOnceCountsErrors: flush and drain failures surface as
// metrics counters (visible on /v1/stats) instead of vanishing into the
// loop's log, and a flush failure does not suppress the drain attempt.
func TestMaintainOnceCountsErrors(t *testing.T) {
	c := newCluster(t)
	reg := metrics.NewRegistry()
	eng := chaos.New(chaos.Plan{Seed: 3}, reg)
	eng.Bind(c)
	cs := eng.Store(c)
	m, err := New(Config{Store: cs, Node: 1, GCQueue: true, Metrics: reg})
	mustNoErr(t, err)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	buildVictim(t, m, "/zap")
	mustNoErr(t, m.FlushAll(ctx))
	mustNoErr(t, m.FS("alice").Rmdir(ctx, "/zap")) // leaves a dirty ring + a queued entry

	eng.FailOn(storemw.OpPut, "/NameRing/") // ring folds fail -> flush errors
	eng.FailOn(storemw.OpGet, "|/gcq/Node") // entry probes fail -> drain errors
	m.MaintainOnce(ctx)
	if got := reg.Counter("maintenance.flush.errors"); got != 1 {
		t.Fatalf("flush error counter = %d, want 1", got)
	}
	if got := reg.Counter("maintenance.drain.errors"); got != 1 {
		t.Fatalf("drain error counter = %d, want 1", got)
	}

	// Heal; the next pass retries both halves cleanly.
	eng.FailOn(storemw.OpPut, "")
	eng.FailOn(storemw.OpGet, "")
	m.MaintainOnce(ctx)
	if got := reg.Counter("maintenance.flush.errors"); got != 1 {
		t.Fatalf("flush errors after heal = %d, want still 1", got)
	}
	if got := reg.Counter("gcqueue.reclaimed"); got != 1 {
		t.Fatalf("reclaimed after heal = %d, want 1", got)
	}
}
