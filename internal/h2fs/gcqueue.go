package h2fs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// Reclamation. Fake deletion (§3.3.3) makes RMDIR O(1) by leaving the
// subtree's objects behind; Rmdir and DeleteAccount describe the doomed
// namespace once, as a core.GCEntry, and run the same three steps:
//
//  1. enqueueGC: with the durable queue on, record the intent — the
//     per-node index object, its account's span now covering the new
//     sequence, then the entry object: two O(1) puts on the caller's
//     virtual clock, so the delete still completes at ring-patch cost.
//     With the queue off it does nothing.
//  2. The commit: the tombstone patch (or the root-record delete) lands
//     and the operation is acknowledged.
//  3. reclaimNow: with EagerGC, reclaimEntry (validate, then walk) runs
//     off the caller's bill, and the entry is dequeued.
//
// Without EagerGC, or after an eager walk failed, the maintenance loop's
// DrainGC probes each recorded span and reclaims every entry through the
// same reclaimEntry, deleting the entry object only after the walk. Lazy,
// eager, queued and eager-over-the-queue are the two switches composed.
//
// A crash at any point replays safely: before step 2 the intent is stale
// (live tuple, core.GCEntry.Acked) and dropped; mid-walk the entry object
// survives, the restarted node re-probes the span from the durable index,
// and the re-walk tolerates already-deleted objects (ErrNotFound
// everywhere), so replay is idempotent — no orphan, no double-free. The
// index is written before the entry (intent-first): a crash between the
// two leaves a covered-but-missing sequence, which the probe skips as
// not-found, never an entry the index cannot find.
//
// Stale-validation only works on settled intents. Between enqueue (step
// 1) and acknowledgment (step 2) the parent tuple is still live, so a
// concurrent drain reading it would wrongly conclude the delete never
// happened and drop an intent whose tombstone is about to land —
// stranding the subtree, the exact leak the queue prevents. Each
// operation therefore keeps its sequence in its span's in-flight window
// (open, under gc.mu) from reservation until it returns; DrainGC defers
// at the first in-flight sequence of a span and revisits on a later
// pass. The window is process-local on purpose: after a real crash the
// operation is dead, its tombstone either landed (the intent validates
// and reclaims) or did not (the intent is genuinely stale).

// gcQueue is the middleware's mirror of its durable queue index. Index
// writes funnel through idxmu, and each encodes a fresh snapshot at
// write time, so serialized writes never regress coverage. Lock order:
// idxmu, then mu.
type gcQueue struct {
	on       bool // Config.GCQueue
	draining atomic.Bool
	idxmu    sync.Mutex
	mu       sync.Mutex
	loaded   bool               // spans primed from the durable index
	spans    map[string]*gcSpan // account -> pending span
}

// gcSpan is one account's pending-sequence window.
type gcSpan struct {
	cursor int          // lowest possibly-pending sequence
	head   int          // highest sequence ever enqueued
	saved  int          // highest sequence a persisted index snapshot covered
	open   map[int]bool // sequences inside their enqueue-to-ack window
}

// GCQueueStats is the queue gauge exposed on /v1/stats.
type GCQueueStats struct {
	Pending   int   `json:"pending"`   // entries possibly awaiting reclamation (span width; may overcount until the next drain prunes)
	Enqueued  int64 `json:"enqueued"`  // intents durably recorded
	Reclaimed int64 `json:"reclaimed"` // entries fully reclaimed and dequeued
	Stale     int64 `json:"stale"`     // intents dropped because the delete was never acknowledged
	Deferred  int64 `json:"deferred"`  // drain probes postponed because the enqueuing operation had not settled
	LagNanos  int64 `json:"lagNanos"`  // cumulative enqueue-to-reclaim lag across reclaimed entries
}

// reset forgets the mirror, as a process restart does: the next use
// re-reads the durable index. The in-flight windows die with the
// simulated process, so an intent whose operation never acknowledged is
// validated at the next drain against its still-live parent tuple and
// dropped as stale.
func (q *gcQueue) reset() {
	q.idxmu.Lock()
	defer q.idxmu.Unlock()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.spans, q.loaded = nil, false
}

// gcLoadLocked primes the mirror from the node's durable index object.
// Callers hold gc.mu.
func (m *Middleware) gcLoadLocked(ctx context.Context) error {
	if m.gc.loaded {
		return nil
	}
	data, _, err := m.store.Get(ctx, core.GCIndexKey(m.node))
	var entries []core.GCIndexEntry
	if err == nil {
		entries, err = core.DecodeGCIndex(data)
	}
	if err != nil && !errors.Is(err, objstore.ErrNotFound) {
		return fmt.Errorf("h2fs: load gc index: %w", err)
	}
	m.gc.spans = make(map[string]*gcSpan, len(entries))
	for _, e := range entries {
		m.gc.spans[e.Account] = &gcSpan{cursor: e.Cursor, head: e.Head}
	}
	m.gc.loaded = true
	return nil
}

// gcSpans loads the mirror if needed and returns every non-empty span in
// account order: the one snapshot the drain, the index write and
// GCQueueSnapshot share, so no queue decision depends on map order.
func (m *Middleware) gcSpans(ctx context.Context) ([]core.GCIndexEntry, error) {
	m.gc.mu.Lock()
	defer m.gc.mu.Unlock()
	if err := m.gcLoadLocked(ctx); err != nil {
		return nil, err
	}
	spans := make([]core.GCIndexEntry, 0, len(m.gc.spans))
	for account, sp := range m.gc.spans {
		if sp.head >= sp.cursor {
			spans = append(spans, core.GCIndexEntry{Account: account, Cursor: sp.cursor, Head: sp.head})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Account < spans[j].Account })
	return spans, nil
}

// gcWriteIndex persists the mirror's non-empty spans. An enqueue passes
// its account and sequence and skips the write when a concurrent
// writer's fresher snapshot already covered it, so concurrent deletes
// batch their index writes instead of queueing one Put each; the drain
// passes seq 0 and always writes.
func (m *Middleware) gcWriteIndex(ctx context.Context, account string, seq int) error {
	m.gc.idxmu.Lock()
	defer m.gc.idxmu.Unlock()
	if seq > 0 && m.gc.saved(account) >= seq {
		return nil
	}
	spans, err := m.gcSpans(ctx)
	if err != nil {
		return err
	}
	if err := m.store.Put(ctx, core.GCIndexKey(m.node), core.EncodeGCIndex(spans), nil); err != nil {
		return fmt.Errorf("h2fs: save gc index: %w", err)
	}
	m.gc.mu.Lock()
	defer m.gc.mu.Unlock()
	for _, e := range spans {
		if sp := m.gc.spans[e.Account]; sp != nil {
			sp.saved = max(sp.saved, e.Head)
		}
	}
	return nil
}

// saved reports the highest sequence of account a persisted index
// snapshot covered.
func (q *gcQueue) saved(account string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if sp := q.spans[account]; sp != nil {
		return sp.saved
	}
	return 0
}

// enqueueGC durably records the intent e and returns its sequence
// number; with the queue off it returns 0 and does nothing. The intent
// must land once the commit follows, so it drops the caller's
// cancellation (but keeps its virtual clock). The sequence is reserved,
// and its in-flight window opened, under gc.mu with no store I/O beyond
// the one-time index load; both writes happen outside the lock, index
// before entry. A failed write leaves only a hole in the span — the
// drain probes it as not-found and moves on — so no rollback is needed.
func (m *Middleware) enqueueGC(ctx context.Context, e core.GCEntry) (int, error) {
	if !m.gc.on {
		return 0, nil
	}
	// Detached: the commit follows, so the intent must land.
	ctx = context.WithoutCancel(ctx)
	seq, err := m.gcReserve(ctx, e.Account)
	if err != nil {
		return 0, err
	}
	if err := m.gcWriteIndex(ctx, e.Account, seq); err != nil {
		m.gcSettle(e.Account, seq)
		return 0, err
	}
	e.Enqueued = m.now()
	if err := m.store.Put(ctx, core.GCQueueKey(e.Account, m.node, seq),
		core.EncodeGCEntry(e), map[string]string{core.MetaType: core.TypeGCEntry}); err != nil {
		m.gcSettle(e.Account, seq)
		return 0, fmt.Errorf("h2fs: enqueue gc intent: %w", err)
	}
	m.reg.Inc("gcqueue.enqueued", 1)
	return seq, nil
}

// gcReserve allocates account's next sequence number and opens its
// in-flight window.
func (m *Middleware) gcReserve(ctx context.Context, account string) (int, error) {
	m.gc.mu.Lock()
	defer m.gc.mu.Unlock()
	if err := m.gcLoadLocked(ctx); err != nil {
		return 0, err
	}
	sp := m.gc.spans[account]
	if sp == nil {
		sp = &gcSpan{cursor: 1}
		m.gc.spans[account] = sp
	}
	sp.head++
	sp.cursor = min(sp.cursor, sp.head)
	if sp.open == nil {
		sp.open = make(map[int]bool)
	}
	sp.open[sp.head] = true
	return sp.head, nil
}

// gcSettle closes an intent's in-flight window: the enqueuing operation
// has returned (commit landed, or the operation failed), so drains may
// now validate the intent. Settling sequence 0 (queue off), an
// already-settled or an unknown sequence is a no-op.
func (m *Middleware) gcSettle(account string, seq int) {
	if seq == 0 {
		return
	}
	m.gc.mu.Lock()
	defer m.gc.mu.Unlock()
	if sp := m.gc.spans[account]; sp != nil {
		delete(sp.open, seq)
	}
}

// inflight reports whether an intent is still inside its enqueue-to-ack
// window.
func (q *gcQueue) inflight(account string, seq int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	sp := q.spans[account]
	return sp != nil && sp.open[seq]
}

// advance moves account's cursor forward to `to` when it sits in
// [from, to). The eager dequeue passes (seq, seq+1): dequeued out of
// order, it leaves the cursor in front of the earlier sequence still
// pending. The drain passes its snapshot cursor and the first sequence
// it left pending. A cursor never moves back.
func (q *gcQueue) advance(account string, from, to int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if sp := q.spans[account]; sp != nil && sp.cursor >= from && sp.cursor < to {
		sp.cursor = to
	}
}

// reclaimNow is step 3: with EagerGC set it reclaims the intent e the
// caller has just committed through the drain's own reclaimEntry, off
// the caller's bill, then dequeues seq. A failed walk returns its error
// and leaves a queued intent for the drain to finish; a failed dequeue
// is only counted — the entry stays queued and the next drain
// revalidates it and re-walks an empty namespace.
func (m *Middleware) reclaimNow(ctx context.Context, e core.GCEntry, seq int) error {
	if !m.eagerGC {
		return nil
	}
	// Detached: once the commit landed, the walk must finish.
	ctx = vclock.With(context.WithoutCancel(ctx), nil) // do not bill GC to the caller
	if _, err := m.reclaimEntry(ctx, e); err != nil || seq == 0 {
		return err
	}
	if ignoreNotFound(m.store.Delete(ctx, core.GCQueueKey(e.Account, m.node, seq))) != nil {
		m.reg.Inc("gcqueue.dequeue.errors", 1)
		return nil
	}
	m.reg.Inc("gcqueue.reclaimed", 1)
	m.gc.advance(e.Account, seq, seq+1)
	return nil
}

// DrainGC processes every pending reclamation intent this node has
// enqueued: probe each account's recorded span in order, validate, walk,
// dequeue. Returns how many entries were drained (reclaimed or dropped
// as stale). Sequences still inside their enqueue-to-ack window are
// deferred — the account's cursor stops in front of them and a later
// drain retries — never validated, since their parent tuples have not
// been tombstoned yet. On error the cursor likewise stops at the failing
// entry — the entry object survives, so the next drain (or a restarted
// node, via Recover) resumes exactly there; store-level transients are
// already retried with backoff by the configured retry layer. Concurrent
// calls coalesce: a drain already in flight makes later calls return
// immediately.
func (m *Middleware) DrainGC(ctx context.Context) (int, error) {
	if !m.gc.on || !m.gc.draining.CompareAndSwap(false, true) {
		return 0, nil
	}
	defer m.gc.draining.Store(false)

	spans, err := m.gcSpans(ctx)
	if err != nil {
		return 0, err
	}
	drained := 0
	var firstErr error
	for _, sp := range spans {
		cursor := sp.Cursor
		for ; cursor <= sp.Head; cursor++ {
			if m.gc.inflight(sp.Account, cursor) {
				// The enqueuing operation has not committed yet: the parent
				// tuple is live right now, so validating would drop an
				// intent whose tombstone is about to land. A later drain
				// revisits once the operation settles.
				m.reg.Inc("gcqueue.deferred", 1)
				break
			}
			ok, err := m.drainEntry(ctx, core.GCQueueKey(sp.Account, m.node, cursor))
			if err != nil {
				firstErr = err
				break
			}
			if ok {
				drained++
			}
		}
		m.gc.advance(sp.Account, sp.Cursor, cursor)
		if firstErr != nil {
			break
		}
	}
	serr := m.gcWriteIndex(ctx, "", 0)
	if firstErr == nil {
		// A failed index save only delays span pruning (the replay probes
		// answer not-found), but the maintenance loop should still see it.
		firstErr = serr
	}
	return drained, firstErr
}

// drainEntry probes one queue key and, when an entry is there, reclaims
// it (or drops it as stale or corrupt) and dequeues it; ok reports
// whether an entry was drained. A missing key is an already-reclaimed
// sequence (crash replay or eager dequeue) or a hole a failed enqueue
// left.
func (m *Middleware) drainEntry(ctx context.Context, key string) (ok bool, err error) {
	data, _, err := m.store.Get(ctx, key)
	if errors.Is(err, objstore.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("h2fs: gc drain probe %s: %w", key, err)
	}
	// A corrupt intent names nothing reclaimable; drop it and let the
	// scrubber find whatever it was protecting.
	entry, derr := core.DecodeGCEntry(data)
	reclaimed := false
	if derr == nil {
		if reclaimed, err = m.reclaimEntry(ctx, entry); err != nil {
			return false, fmt.Errorf("h2fs: gc drain reclaim %s: %w", key, err)
		}
	}
	if err := m.store.Delete(ctx, key); err != nil && !errors.Is(err, objstore.ErrNotFound) {
		return false, fmt.Errorf("h2fs: gc drain dequeue %s: %w", key, err)
	}
	switch {
	case derr != nil:
		m.reg.Inc("gcqueue.corrupt", 1)
	case reclaimed:
		m.reg.Inc("gcqueue.reclaimed", 1)
		if lag := m.now() - entry.Enqueued; lag > 0 {
			m.reg.Inc("gcqueue.lag_ns", lag) // reclamation lag, summed across entries
		}
	default:
		m.reg.Inc("gcqueue.stale", 1)
	}
	return true, nil
}

// reclaimEntry validates one intent and, if the delete it records was
// acknowledged (core.GCEntry.Acked), reclaims the namespace through the
// pipelined walker. Returns false when the intent is stale — the
// tombstone (or root-record delete) never landed, so the subtree is live
// and must not be touched.
func (m *Middleware) reclaimEntry(ctx context.Context, e core.GCEntry) (bool, error) {
	acked, entryKey, err := m.acked(ctx, e, m.lookupChild)
	if !acked || err != nil {
		return false, err
	}
	return true, m.gcNamespace(ctx, e.Account, e.NS, entryKey)
}

// acked validates the intent e (core.GCEntry.Acked) against the tuple it
// records the delete of: the account's root record — ok while it exists,
// NS the namespace it names — or e's name in its parent ring, as lookup
// reads it.
func (m *Middleware) acked(ctx context.Context, e core.GCEntry,
	lookup func(ctx context.Context, account, ns, name string) (core.Tuple, bool, error)) (bool, string, error) {
	var t core.Tuple
	var ok bool
	var err error
	if e.Root {
		var data []byte
		if data, _, err = m.store.Get(ctx, core.RootKey(e.Account)); err == nil {
			t, ok = core.Tuple{NS: string(data)}, true
		}
		err = ignoreNotFound(err)
	} else {
		t, ok, err = lookup(ctx, e.Account, e.ParentNS, e.Name)
	}
	if err != nil {
		return false, "", err
	}
	acked, entryKey := e.Acked(t, ok)
	return acked, entryKey, nil
}

// GCQueueSnapshot reports queue depth and lifetime counters; nil when
// the queue is disabled. Pending is the recorded span width, which may
// overcount briefly after eager dequeues until a drain prunes the spans.
func (m *Middleware) GCQueueSnapshot(ctx context.Context) (*GCQueueStats, error) {
	if !m.gc.on {
		return nil, nil
	}
	spans, err := m.gcSpans(ctx)
	if err != nil {
		return nil, err
	}
	pending := 0
	for _, sp := range spans {
		pending += sp.Head - sp.Cursor + 1
	}
	return &GCQueueStats{
		Pending:   pending,
		Enqueued:  m.reg.Counter("gcqueue.enqueued"),
		Reclaimed: m.reg.Counter("gcqueue.reclaimed"),
		Stale:     m.reg.Counter("gcqueue.stale"),
		Deferred:  m.reg.Counter("gcqueue.deferred"),
		LagNanos:  m.reg.Counter("gcqueue.lag_ns"),
	}, nil
}
