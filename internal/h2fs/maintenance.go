package h2fs

import (
	"context"
	"log"
	"time"
)

// StartMaintenance runs the Background Merger on a fixed interval until
// ctx is cancelled: every dirty NameRing descriptor is flushed (folding
// patch chains into ring objects and advertising updates over gossip),
// then the durable GC queue is drained
// when one is configured. Deployments call this once per middleware;
// tests drive the loop through StartMaintenanceTicks (or MaintainOnce
// directly) for determinism. The returned channel closes when the loop
// exits.
func (m *Middleware) StartMaintenance(ctx context.Context, interval time.Duration) <-chan struct{} {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ticker := time.NewTicker(interval)
	return m.maintenanceLoop(ctx, ticker.C, ticker.Stop)
}

// StartMaintenanceTicks is StartMaintenance with an injected tick
// source: one maintenance pass runs per value received. Tests own the
// schedule instead of racing a real ticker.
func (m *Middleware) StartMaintenanceTicks(ctx context.Context, ticks <-chan time.Time) <-chan struct{} {
	return m.maintenanceLoop(ctx, ticks, nil)
}

func (m *Middleware) maintenanceLoop(ctx context.Context, ticks <-chan time.Time, stop func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if stop != nil {
			defer stop()
		}
		for {
			select {
			case <-ctx.Done():
				// Final flush so a clean shutdown persists local state. The
				// queue needs no parting drain: its entries are durable and
				// the next start (or any peer of a dead node) resumes them.
				// Detached: ctx is already cancelled, and local state must persist.
				if err := m.FlushAll(context.WithoutCancel(ctx)); err != nil {
					m.reg.Inc("maintenance.flush.errors", 1)
					log.Printf("h2fs: final flush: %v", err)
				}
				return
			case <-ticks:
				m.MaintainOnce(ctx)
			}
		}
	}()
	return done
}

// MaintainOnce runs a single maintenance pass: flush all dirty
// descriptors, then drain the GC queue. Failures are counted
// (maintenance.flush.errors, maintenance.drain.errors — visible on
// /v1/stats) as well as logged, and never stop the loop: both halves
// are idempotent, so the next tick simply retries.
func (m *Middleware) MaintainOnce(ctx context.Context) {
	if err := m.FlushAll(ctx); err != nil {
		m.reg.Inc("maintenance.flush.errors", 1)
		log.Printf("h2fs: maintenance flush: %v", err)
	}
	if _, err := m.DrainGC(ctx); err != nil {
		m.reg.Inc("maintenance.drain.errors", 1)
		log.Printf("h2fs: maintenance gc drain: %v", err)
	}
}
