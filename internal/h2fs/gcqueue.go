package h2fs

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// Durable async GC queue. Fake deletion (§3.3.3) makes RMDIR O(1) by
// leaving the subtree's objects behind; this queue makes the out-of-band
// reclamation crash-safe instead of best-effort. The protocol:
//
//  1. Enqueue intent. Before the tombstone patch is submitted, the
//     middleware durably records {cursor, head} spans in its per-node
//     index object and writes a core.GCEntry object for the doomed
//     namespace. Both writes ride the caller's virtual clock — two O(1)
//     puts, so the delete still completes at ring-patch cost.
//  2. Tombstone. The fake-deletion patch lands; the operation is
//     acknowledged.
//  3. Drain. The maintenance loop probes each recorded span, validates
//     every intent against the parent ring (a tombstone-less tuple means
//     the RMDIR of step 2 never happened — the intent is stale and
//     dropped, never reclaimed), walks the subtree through the pipelined
//     walker, and only then deletes the entry object.
//
// A crash at any point replays safely: before step 2 the intent is stale
// (live tuple) and dropped; mid-drain the entry object survives, the
// restarted node re-probes the span from the durable index, and the
// re-walk tolerates already-deleted objects (ErrNotFound everywhere), so
// replay is idempotent — no orphan, no double-free. The index is written
// before the entry (intent-first): a crash between the two leaves a
// covered-but-missing sequence, which the probe skips as not-found,
// never an entry the index cannot find.
//
// Stale-validation only works on settled intents. Between enqueue (step
// 1) and acknowledgment (step 2) the parent tuple is still live, so a
// concurrent drain reading it would wrongly conclude the delete never
// happened and drop an intent whose tombstone is about to land —
// stranding the subtree, the exact leak the queue prevents. Each
// operation therefore keeps its sequence in an in-flight window
// (gcinflight, under gcmu) from reservation until it returns; DrainGC
// defers at the first in-flight sequence of a span and revisits on a
// later pass. The window is process-local on purpose: after a real
// crash the operation is dead, its tombstone either landed (the intent
// validates and reclaims) or did not (the intent is genuinely stale).

// gcState is one account's in-memory mirror of its index span.
type gcState struct {
	cursor int // lowest possibly-pending sequence
	head   int // highest sequence ever enqueued
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

// loadGCLocked populates the in-memory span mirror from the node's
// durable index object. Callers hold gcmu.
func (m *Middleware) loadGCLocked(ctx context.Context) error {
	if m.gcloaded {
		return nil
	}
	data, _, err := m.store.Get(ctx, core.GCIndexKey(m.node))
	if err != nil {
		if !errors.Is(err, objstore.ErrNotFound) {
			return fmt.Errorf("h2fs: load gc index: %w", err)
		}
		m.gcloaded = true
		return nil
	}
	entries, err := core.DecodeGCIndex(data)
	if err != nil {
		return fmt.Errorf("h2fs: load gc index: %w", err)
	}
	for _, e := range entries {
		m.gcstates[e.Account] = &gcState{cursor: e.Cursor, head: e.Head}
	}
	m.gcloaded = true
	return nil
}

// gcAccountsLocked returns the mirrored account names in sorted order,
// so no queue decision depends on map iteration order. Callers hold gcmu.
func (m *Middleware) gcAccountsLocked() []string {
	accounts := make([]string, 0, len(m.gcstates))
	for account := range m.gcstates {
		accounts = append(accounts, account)
	}
	sort.Strings(accounts)
	return accounts
}

// gcWriteIndex persists the span mirror, pruning accounts whose spans
// are empty. All index writes funnel through gcidxmu, and each encodes
// a fresh snapshot at write time, so serialized writes never regress
// coverage — a later write always covers at least what an earlier one
// did.
func (m *Middleware) gcWriteIndex(ctx context.Context) error {
	m.gcidxmu.Lock()
	defer m.gcidxmu.Unlock()
	return m.gcWriteIndexLocked(ctx)
}

// gcWriteIndexLocked is gcWriteIndex's body; the caller holds gcidxmu
// and must not hold gcmu (lock order is gcidxmu, then gcmu).
func (m *Middleware) gcWriteIndexLocked(ctx context.Context) error {
	entries, heads := m.gcSnapshotIndex()
	if err := m.store.Put(ctx, core.GCIndexKey(m.node), core.EncodeGCIndex(entries), nil); err != nil {
		return fmt.Errorf("h2fs: save gc index: %w", err)
	}
	m.gcidxheads = heads
	return nil
}

// gcSnapshotIndex encodes the current span mirror (pruning empty spans)
// together with the per-account heads the snapshot covers.
func (m *Middleware) gcSnapshotIndex() ([]core.GCIndexEntry, map[string]int) {
	m.gcmu.Lock()
	defer m.gcmu.Unlock()
	entries := make([]core.GCIndexEntry, 0, len(m.gcstates))
	heads := make(map[string]int, len(m.gcstates))
	for _, account := range m.gcAccountsLocked() {
		st := m.gcstates[account]
		if st.head < st.cursor {
			continue
		}
		entries = append(entries, core.GCIndexEntry{Account: account, Cursor: st.cursor, Head: st.head})
		heads[account] = st.head
	}
	return entries, heads
}

// gcCoverIndex makes the durable index cover account's span through at
// least seq. An enqueue whose sequence a concurrent writer's fresher
// snapshot already persisted skips the store round-trip entirely, so
// concurrent deletes batch their index writes instead of queueing one
// Put each.
func (m *Middleware) gcCoverIndex(ctx context.Context, account string, seq int) error {
	m.gcidxmu.Lock()
	defer m.gcidxmu.Unlock()
	if m.gcidxheads[account] >= seq {
		return nil
	}
	return m.gcWriteIndexLocked(ctx)
}

// enqueueGC durably records the intent to reclaim namespace ns and
// returns the entry's sequence number. The sequence is reserved (and its
// in-flight window opened) under gcmu with no store I/O beyond the
// one-time index load; both persistence writes happen outside the lock,
// index before entry, so concurrent deletes do not serialize on each
// other's round-trips and a crash between the writes leaves a skippable
// gap rather than an unfindable entry. A failed write likewise leaves
// only a hole in the span — the drain probes it as not-found and moves
// on — so no rollback is needed (nor possible once later sequences have
// been reserved).
func (m *Middleware) enqueueGC(ctx context.Context, account, ns, parentNS, name string, root bool) (int, error) {
	seq, err := m.gcReserve(ctx, account)
	if err != nil {
		return 0, err
	}
	if err := m.gcCoverIndex(ctx, account, seq); err != nil {
		m.gcSettle(account, seq)
		return 0, err
	}
	entry := core.GCEntry{Account: account, NS: ns, ParentNS: parentNS, Name: name, Root: root, Enqueued: m.now()}
	if err := m.store.Put(ctx, core.GCQueueKey(account, m.node, seq),
		core.EncodeGCEntry(entry), map[string]string{metaType: "gcq"}); err != nil {
		m.gcSettle(account, seq)
		return 0, fmt.Errorf("h2fs: enqueue gc intent: %w", err)
	}
	m.reg.Inc("gcqueue.enqueued", 1)
	return seq, nil
}

// gcReserve allocates account's next sequence number and opens its
// in-flight window; no store I/O happens under the mirror lock beyond
// the one-time index load.
func (m *Middleware) gcReserve(ctx context.Context, account string) (int, error) {
	m.gcmu.Lock()
	defer m.gcmu.Unlock()
	if err := m.loadGCLocked(ctx); err != nil {
		return 0, err
	}
	st := m.gcstates[account]
	if st == nil {
		st = &gcState{cursor: 1}
		m.gcstates[account] = st
	}
	st.head++
	seq := st.head
	if st.cursor > seq {
		st.cursor = seq
	}
	if m.gcinflight[account] == nil {
		m.gcinflight[account] = make(map[int]bool)
	}
	m.gcinflight[account][seq] = true
	return seq, nil
}

// gcSettle closes an intent's in-flight window: the enqueuing operation
// has returned (tombstone landed, or the operation failed), so drains
// may now validate the intent against the parent ring. Settling an
// already-settled or unknown sequence is a no-op.
func (m *Middleware) gcSettle(account string, seq int) {
	m.gcmu.Lock()
	defer m.gcmu.Unlock()
	if s := m.gcinflight[account]; s != nil {
		delete(s, seq)
		if len(s) == 0 {
			delete(m.gcinflight, account)
		}
	}
}

// gcInflight reports whether an intent is still inside its
// enqueue-to-ack window.
func (m *Middleware) gcInflight(account string, seq int) bool {
	m.gcmu.Lock()
	defer m.gcmu.Unlock()
	return m.gcinflight[account][seq]
}

// dequeueGC removes an entry whose subtree was reclaimed eagerly, inside
// the same operation that enqueued it. A failed delete is harmless — the
// entry stays queued and the next drain revalidates and re-reclaims it
// (a no-op walk) — so the error is only counted, never surfaced.
func (m *Middleware) dequeueGC(ctx context.Context, account string, seq int) {
	if err := m.store.Delete(ctx, core.GCQueueKey(account, m.node, seq)); err != nil &&
		!errors.Is(err, objstore.ErrNotFound) {
		m.reg.Inc("gcqueue.dequeue.errors", 1)
		return
	}
	m.reg.Inc("gcqueue.reclaimed", 1)
	m.gcBumpCursor(account, seq)
}

// gcBumpCursor advances account's cursor past seq if it sits exactly
// there (the common in-order eager dequeue).
func (m *Middleware) gcBumpCursor(account string, seq int) {
	m.gcmu.Lock()
	defer m.gcmu.Unlock()
	if st := m.gcstates[account]; st != nil && st.cursor == seq {
		st.cursor = seq + 1
	}
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
	if !m.gcq {
		return 0, nil
	}
	if !m.gcdraining.CompareAndSwap(false, true) {
		return 0, nil
	}
	defer m.gcdraining.Store(false)

	spans, err := m.gcSnapshotSpans(ctx)
	if err != nil {
		return 0, err
	}

	drained := 0
	var firstErr error
	for _, sp := range spans {
		cursor := sp.cursor
		for seq := sp.cursor; seq <= sp.head; seq++ {
			if m.gcInflight(sp.account, seq) {
				// The enqueuing operation is still between its intent write
				// and its acknowledgment: the parent tuple it will tombstone
				// is live right now, so validating would misclassify the
				// intent as stale and drop it — stranding a subtree whose
				// delete is about to be acknowledged. Leave the cursor here;
				// a later drain revisits once the operation settles.
				m.reg.Inc("gcqueue.deferred", 1)
				break
			}
			key := core.GCQueueKey(sp.account, m.node, seq)
			data, _, err := m.store.Get(ctx, key)
			if errors.Is(err, objstore.ErrNotFound) {
				cursor = seq + 1 // already reclaimed (crash replay or eager dequeue)
				continue
			}
			if err != nil {
				firstErr = fmt.Errorf("h2fs: gc drain probe %s: %w", key, err)
				break
			}
			entry, derr := core.DecodeGCEntry(data)
			if derr != nil {
				// A corrupt intent names nothing reclaimable; drop it and
				// let the scrubber find whatever it was protecting.
				m.reg.Inc("gcqueue.corrupt", 1)
				if err := m.store.Delete(ctx, key); err != nil && !errors.Is(err, objstore.ErrNotFound) {
					firstErr = fmt.Errorf("h2fs: gc drain drop %s: %w", key, err)
					break
				}
				cursor = seq + 1
				drained++
				continue
			}
			reclaimed, err := m.reclaimEntry(ctx, entry)
			if err != nil {
				firstErr = fmt.Errorf("h2fs: gc drain reclaim %s: %w", key, err)
				break
			}
			if err := m.store.Delete(ctx, key); err != nil && !errors.Is(err, objstore.ErrNotFound) {
				firstErr = fmt.Errorf("h2fs: gc drain dequeue %s: %w", key, err)
				break
			}
			if reclaimed {
				m.reg.Inc("gcqueue.reclaimed", 1)
				if lag := m.now() - entry.Enqueued; lag > 0 {
					m.reg.Inc("gcqueue.lag_ns", lag) // reclamation lag, summed across entries
				}
			} else {
				m.reg.Inc("gcqueue.stale", 1)
			}
			cursor = seq + 1
			drained++
		}
		m.gcMergeCursor(sp.account, cursor)
		if firstErr != nil {
			break
		}
	}
	serr := m.gcWriteIndex(ctx)
	if firstErr == nil {
		// A failed index save only delays span pruning (the replay probes
		// answer not-found), but the maintenance loop should still see it.
		firstErr = serr
	}
	return drained, firstErr
}

// gcSpan is one account's pending-sequence window, snapshotted at the
// start of a drain.
type gcSpan struct {
	account      string
	cursor, head int
}

// gcSnapshotSpans loads the durable index (if not mirrored yet) and
// returns every account's span in sorted account order.
func (m *Middleware) gcSnapshotSpans(ctx context.Context) ([]gcSpan, error) {
	m.gcmu.Lock()
	defer m.gcmu.Unlock()
	if err := m.loadGCLocked(ctx); err != nil {
		return nil, err
	}
	spans := make([]gcSpan, 0, len(m.gcstates))
	for _, account := range m.gcAccountsLocked() {
		st := m.gcstates[account]
		spans = append(spans, gcSpan{account, st.cursor, st.head})
	}
	return spans, nil
}

// gcMergeCursor folds a drain's progress back into the mirror; a
// concurrent eager dequeue may have advanced it further, so the cursor
// only ever moves forward.
func (m *Middleware) gcMergeCursor(account string, cursor int) {
	m.gcmu.Lock()
	defer m.gcmu.Unlock()
	if st := m.gcstates[account]; st != nil && cursor > st.cursor {
		st.cursor = cursor
	}
}

// reclaimEntry validates one intent and, if the delete it records was
// acknowledged, reclaims the namespace through the pipelined walker.
// Returns false when the intent is stale — the tombstone (or root-record
// delete) never landed, so the subtree is live and must not be touched.
func (m *Middleware) reclaimEntry(ctx context.Context, e core.GCEntry) (bool, error) {
	entryKey := ""
	if e.Root {
		data, _, err := m.store.Get(ctx, core.RootKey(e.Account))
		if err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return false, err
		}
		if err == nil && string(data) == e.NS {
			return false, nil // account deletion never acknowledged; still live
		}
	} else {
		t, ok, err := m.lookupChild(ctx, e.Account, e.ParentNS, e.Name)
		if err != nil {
			return false, err
		}
		if ok && !t.Deleted && t.NS == e.NS {
			return false, nil // rmdir never acknowledged; subtree still live
		}
		// The entry's child object is ours to delete unless the name was
		// reused by a live successor (same key, new namespace): then the
		// object at EntryKey belongs to the successor and must survive.
		if !ok || t.Deleted {
			entryKey = e.EntryKey()
		}
	}
	return true, m.gcNamespace(ctx, e.Account, e.NS, entryKey)
}

// GCQueueSnapshot reports queue depth and lifetime counters; nil when
// the queue is disabled. Pending is the recorded span width, which may
// overcount briefly after eager dequeues until a drain prunes the spans.
func (m *Middleware) GCQueueSnapshot(ctx context.Context) (*GCQueueStats, error) {
	if !m.gcq {
		return nil, nil
	}
	m.gcmu.Lock()
	defer m.gcmu.Unlock()
	if err := m.loadGCLocked(ctx); err != nil {
		return nil, err
	}
	pending := 0
	for _, account := range m.gcAccountsLocked() {
		if st := m.gcstates[account]; st.head >= st.cursor {
			pending += st.head - st.cursor + 1
		}
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
