package h2fs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/gossip"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// descriptor is one NameRing's File Descriptor (§4.5): it serializes
// access to the ring, tracks the node's local version, its unflushed patch
// chain, and the merge watermarks used to garbage-collect merged patches.
type descriptor struct {
	mu      sync.Mutex
	account string
	ns      string
	key     string // core.RingKey(account, ns), built once: the ring object's name

	// local is this node's local version (§3.3.2 step 1) and watermarks
	// the highest patch sequence of each node already folded into the
	// flushed ring object. Both are nil until the first store read is
	// adopted: a load owns what it decoded, and parses the watermarks into
	// wmSlots, which hold two middlewares' without an allocation.
	local      *core.NameRing
	watermarks core.Watermarks
	wmSlots    [2]core.Watermark
	loaded     bool
	// settled: this node's own patch chain is known empty — a stub released
	// clean after it had loaded, one woken from it (descache.go), or one
	// born from a ring this node put — so load skips probing it.
	settled        bool
	nextSeq        int // next patch sequence this node will submit
	firstUnflushed int
	// dirtyNames records the children whose tuples changed locally since
	// the last flush. Non-empty means the descriptor is dirty; for a
	// sharded ring the set also tells the flush which extents to rewrite
	// (names, not extent indices, so the set survives layout changes).
	dirtyNames map[string]struct{}
	// lay mirrors the directory's store layout as last observed: one
	// extent (the ring object at RingKey itself) or an H2DRX manifest there
	// plus that many sub-ring extents.
	lay core.ShardManifest
	// headTag is the ETag of the version of the object at RingKey this
	// node last read or put — objstore.Absent for none stored, "" for none
	// remembered — and tags[i] the same for extent i of a sharded layout
	// (nil for a monolithic one). local dominates every remembered
	// version, so a flush puts over it with the tag as its precondition
	// and reads nothing; a failed precondition means a peer wrote since.
	headTag string
	tags    []string
	// resident is false for a stub and for a descriptor dropped from the
	// cache while a caller still held its pointer; lockedDesc retries on
	// seeing it. Written under the cache lock, and under mu unless the
	// descriptor is being admitted.
	resident atomic.Bool
	// referenced is the CLOCK bit: set by a cache hit, cleared by the hand.
	referenced atomic.Bool
	// slot is the descriptor's place on the clock while it is resident
	// under a limit, and releasedAt the cache's release count at its last
	// release (0 = never); both written under the cache lock.
	slot, releasedAt int
	// hash is core.RingHash(account, ns); next chains the descriptor into
	// the table, written under the cache lock. Lookups read both with no
	// lock.
	hash uint32
	next atomic.Pointer[descriptor]
	// lastGossip is the newest advertisement timestamp already processed
	// for this ring; older or equal adverts are not forwarded (the
	// loop-back avoidance of §3.3.2). Content timestamps cannot serve
	// here: a node whose own write is globally newest would wrongly
	// conclude it has seen everything.
	lastGossip int64
}

func newDescriptor(account, ns string, hash uint32) *descriptor {
	return &descriptor{
		account:    account,
		ns:         ns,
		key:        core.RingKey(account, ns),
		hash:       hash,
		dirtyNames: map[string]struct{}{},
		lay:        core.ShardManifest{Shards: 1},
	}
}

// release drops everything the descriptor learned from the store and
// leaves it settled: the stub of a clean descriptor that had loaded
// (descache.go). The caller holds mu.
func (d *descriptor) release() {
	d.local, d.watermarks, d.tags, d.headTag, d.loaded, d.settled = nil, nil, nil, "", false, true
	d.nextSeq, d.firstUnflushed, d.lastGossip = 0, 0, 0
	d.lay = core.ShardManifest{Shards: 1}
}

// noteChanged records one changed child; it is the MergeFunc callback
// every local mutation routes through, and what lets a sharded flush
// rewrite only the extents that actually changed.
func (d *descriptor) noteChanged(t core.Tuple) {
	d.dirtyNames[t.Name] = struct{}{}
}

// isDirty reports whether local holds tuples not yet flushed to the store.
func (d *descriptor) isDirty() bool { return len(d.dirtyNames) > 0 }

// clean reports whether the descriptor can be evicted and rebuilt from
// the store alone: nothing unflushed, and no patch sequence numbers that
// a reload would not reconstruct from the flushed watermarks.
func (d *descriptor) clean() bool {
	return !d.isDirty() && d.firstUnflushed >= d.nextSeq
}

// dirtyShardSet maps the dirty child names onto the current layout's
// extent indices, sorted for deterministic write order.
func (d *descriptor) dirtyShardSet() []int {
	out := make([]int, 0, min(len(d.dirtyNames), d.lay.Shards))
	for name := range d.dirtyNames {
		s := core.ShardOf(name, d.lay.Shards)
		if i, seen := slices.BinarySearch(out, s); !seen {
			out = slices.Insert(out, i, s)
		}
	}
	return out
}

// untagged returns the dirty extents of a sharded layout whose stored
// version the descriptor does not remember.
func (d *descriptor) untagged() []int {
	if d.lay.Shards == 1 {
		return nil
	}
	var out []int
	for _, s := range d.dirtyShardSet() {
		if d.tags[s] == "" {
			out = append(out, s)
		}
	}
	return out
}

// storedRing is what one store read tells a descriptor about its
// directory's ring: the merged tuples it fetched, the head's sealed
// metadata that carries the flush watermarks, the layout they are stored
// under, and the tags of what it read.
type storedRing struct {
	ring    *core.NameRing
	meta    map[string]string
	lay     core.ShardManifest
	headTag string   // descriptor.headTag once ring is merged
	tags    []string // descriptor.tags once ring is merged
	// full reports that ring holds every stored tuple; a narrow read of a
	// sharded layout covers only the extents it was asked about.
	full bool
}

// adopt folds a store read into the descriptor: the tuples (which never
// dirty an extent — they come from already-flushed state), the peers'
// watermark advances, and the layout with its tags. Dirty names are
// names, not indices, so pending dirt remaps onto a layout a peer
// transitioned to.
func (d *descriptor) adopt(sr storedRing) {
	if d.local == nil {
		// The first read: own the decoded ring instead of merging it tuple
		// by tuple into an empty copy.
		d.local = sr.ring
		if d.local == nil {
			d.local = core.NewNameRing()
		}
		d.watermarks = core.ParseWatermarks(d.wmSlots[:0], sr.meta)
	} else if sr.headTag != objstore.Absent {
		d.local.Merge(sr.ring)
		d.watermarks = core.ParseWatermarks(d.watermarks, sr.meta)
	}
	d.headTag, d.lay, d.tags = sr.headTag, sr.lay, sr.tags
}

// readStoredRing reads a directory's store representation: the head object
// at RingKey, then the extents of the layout it names — every one, or,
// narrow and the head naming the sharded layout the descriptor knows, only
// the dirty extents whose tag the descriptor does not hold. A directory
// with no stored ring reads as an empty monolithic one under the
// generation it had, so a layout it grows into uses new keys.
func (m *Middleware) readStoredRing(ctx context.Context, d *descriptor, narrow bool) (storedRing, error) {
	h, err := readHead(ctx, m.store, d.account, d.ns, d.key)
	switch {
	case errors.Is(err, objstore.ErrNotFound):
		return storedRing{lay: core.ShardManifest{Shards: 1, Gen: d.lay.Gen}, headTag: objstore.Absent, full: true}, nil
	case err != nil:
		return storedRing{}, err
	}
	sr := storedRing{meta: h.Head.Meta, lay: h.Layout, headTag: h.Head.ETag, full: true}
	if narrow && h.Layout == d.lay && d.lay.Shards > 1 {
		sr.tags, sr.full = slices.Clone(d.tags), false
		sr.ring, err = fetchExtents(ctx, m.store, d.account, d.ns, d.lay, d.untagged(), sr.tags)
		return sr, err
	}
	sr.ring, sr.tags, err = h.readAll(ctx, m.store, d.account, d.ns)
	return sr, err
}

// load populates a descriptor from the store: the ring representation
// (monolithic or sharded) plus this node's own unmerged patch chain
// (crash recovery — patches that were submitted but never folded into the
// ring object are replayed, and the sequence counter resumes past them).
// load is only called with the descriptor's monitor held.
func (m *Middleware) load(ctx context.Context, d *descriptor) error {
	if d.loaded {
		return nil
	}
	sr, err := m.readStoredRing(ctx, d, false)
	if err != nil {
		return err
	}
	d.adopt(sr)
	// Replay this node's orphaned patches (crash recovery) — unless the
	// descriptor is settled: its chain was empty when it was released clean
	// and nobody else writes it, so the probe could only miss.
	seq := d.watermarks.Get(m.node) + 1
	if d.settled {
		m.reg.Inc("descCache.probes.skipped", 1)
	} else if seq, err = m.replayChain(ctx, d, m.node, seq); err != nil {
		return err
	}
	d.nextSeq = seq
	d.firstUnflushed = d.watermarks.Get(m.node) + 1
	// Replay peers' unmerged patch chains too, in node order for
	// determinism: after a restart the flushed ring object may trail
	// patches peers have already acknowledged to their clients, and a
	// reloading middleware must not serve a view missing those updates.
	// Peers unknown to the watermarks (never flushed) reconverge through
	// gossip instead.
	for _, w := range d.watermarks {
		if w.Node == m.node {
			continue
		}
		if _, err := m.replayChain(ctx, d, w.Node, w.Seq+1); err != nil {
			return err
		}
	}
	d.loaded = true
	return nil
}

// born puts ring as the whole state of a namespace no other node knows yet
// (a new directory, an account root, a COPY's destination) and installs
// what a load of it would build: monolithic, no watermarks, own chain empty
// (settled). An empty ring keeps its tag, which is a constant; a COPY's
// ring keeps none, which would cost a hash per ring. A descriptor that
// already adopted a read keeps it.
func (m *Middleware) born(ctx context.Context, account, ns string, ring *core.NameRing) error {
	if err := m.store.Put(ctx, core.RingKey(account, ns), core.EncodeNameRing(ring), nil); err != nil {
		return err
	}
	d := m.lockedDesc(account, ns)
	defer m.unlockDesc(d)
	if d.local == nil {
		d.local, d.nextSeq, d.firstUnflushed, d.loaded, d.settled = ring, 1, 1, true, true
		if ring.TotalLen() == 0 {
			d.headTag = emptyRingTag
		}
	}
	return nil
}

// emptyRingTag is the ETag of an empty ring stored without metadata.
var emptyRingTag = objstore.ETag(core.EncodeNameRing(core.NewNameRing()))

// replayChain merges node's patches into local from sequence seq until the
// chain ends, and returns the first sequence number the store does not
// hold.
func (m *Middleware) replayChain(ctx context.Context, d *descriptor, node, seq int) (int, error) {
	for ; ; seq++ {
		key := core.PatchKey(d.account, d.ns, node, seq)
		pdata, _, err := m.store.Get(ctx, key)
		if errors.Is(err, objstore.ErrNotFound) {
			return seq, nil
		}
		if err != nil {
			return seq, err
		}
		p, err := core.DecodePatch(key, pdata)
		if err != nil {
			return seq, err
		}
		d.local.MergeFunc(p.Ring, d.noteChanged)
	}
}

// withRing runs fn on the ring's local version under the descriptor
// monitor. One ring-consult charge is applied (either the load's real
// store GET or the cache-consult charge). fn must not consult other rings.
func (m *Middleware) withRing(ctx context.Context, account, ns string, fn func(*core.NameRing)) error {
	d := m.lockedDesc(account, ns)
	defer m.unlockDesc(d)
	if d.loaded {
		m.chargeRingConsult(ctx)
	} else if err := m.load(ctx, d); err != nil {
		return err
	}
	fn(d.local)
	return nil
}

// lookupChild returns the tuple for one child of a directory, counting a
// single ring consult.
func (m *Middleware) lookupChild(ctx context.Context, account, ns, name string) (t core.Tuple, ok bool, err error) {
	err = m.withRing(ctx, account, ns, func(r *core.NameRing) { t, ok = r.Get(name) })
	return t, ok, err
}

// submitPatch implements §3.3.2 phase 1: the tuples are packed as a patch
// (same format as a NameRing), assigned the node/sequence-decorated key,
// put to the object storage cloud, and applied to the local version. The
// Background Merger later folds the patch chain into the ring object.
func (m *Middleware) submitPatch(ctx context.Context, account, ns string, tuples ...core.Tuple) error {
	d := m.lockedDesc(account, ns)
	defer m.unlockDesc(d)
	if err := m.load(ctx, d); err != nil {
		return err
	}
	ring := core.RingOf(tuples...)
	if m.syncProto {
		// Strawman synchronous protocol (§3.3.1): the update is applied
		// to the NameRing object in the cloud before the operation
		// returns, serialized by the ring's descriptor monitor. Stronger
		// consistency, but every mutation pays a read-modify-write and
		// hot directories bottleneck on the lock — the drawbacks that
		// motivate the asynchronous patch protocol.
		d.local.MergeFunc(ring, d.noteChanged)
		d.headTag = "" // the strawman is by definition the naive GET-merge-PUT: it trusts no tag
		clear(d.tags)
		return m.flushLocked(ctx, d)
	}
	p := &core.Patch{Account: account, NS: ns, Node: m.node, Seq: d.nextSeq, Ring: ring}
	if err := m.store.Put(ctx, p.Key(), p.Encode(), nil); err != nil {
		return fmt.Errorf("h2fs: submit patch: %w", err)
	}
	d.nextSeq++
	d.local.MergeFunc(ring, d.noteChanged)
	return nil
}

// lockDesc/unlockDesc guard one descriptor; operations lock at most one
// descriptor at a time (multi-ring operations such as MOVE acquire them
// sequentially), so no lock ordering is needed. The acquire half is a
// deliberate cross-function pair — callers always defer unlockDesc.
//
//h2vet:ignore lockcheck lockDesc is the acquire half of a lock/defer-unlock pair
func (m *Middleware) lockDesc(d *descriptor)   { d.mu.Lock() }
func (m *Middleware) unlockDesc(d *descriptor) { d.mu.Unlock() }

// lockedDesc returns the ring's descriptor with its monitor held. The
// cache may release a clean descriptor between the lookup and the lock, so
// acquisition re-checks that it is resident and retries against the cache,
// which wakes the stub (or creates a fresh descriptor in place of a dropped
// one) to reload from the flushed store state.
func (m *Middleware) lockedDesc(account, ns string) *descriptor {
	for {
		d := m.desc(account, ns)
		m.lockDesc(d)
		if d.resident.Load() {
			return d
		}
		m.unlockDesc(d)
	}
}

// flushLocked runs the Background Merger (§4.5) for one ring — the
// "intra-node merging" step made durable; the caller holds the descriptor
// monitor. One round (mergeAndPut) puts the local version over the stored
// one, each object conditional on its remembered tag; a precondition that
// fails forgets its tag, and a second round reads that object, merges it
// and puts again. Then this node's folded patch objects are deleted and
// the update is advertised to the gossip bus, if any. Tombstones are kept:
// a ring changes only by merge.
func (m *Middleware) flushLocked(ctx context.Context, d *descriptor) error {
	if d.clean() {
		return nil
	}
	err := m.mergeAndPut(ctx, d)
	if errors.Is(err, objstore.ErrPrecondition) {
		m.reg.Inc("flush.refetched", 1)
		err = m.mergeAndPut(ctx, d)
	}
	if err != nil {
		return err
	}
	for seq := d.firstUnflushed; seq < d.nextSeq; seq++ {
		// A missing patch object was already collected by a peer's merge.
		if err := ignoreNotFound(m.store.Delete(ctx, core.PatchKey(d.account, d.ns, m.node, seq))); err != nil {
			return fmt.Errorf("h2fs: collect patch %d: %w", seq, err)
		}
	}
	d.firstUnflushed = d.nextSeq
	clear(d.dirtyNames)
	if m.bus != nil {
		m.bus.Broadcast(m.node, gossip.Message{
			Account: d.account, NS: d.ns, Origin: m.node, Version: m.now(),
		})
	}
	return nil
}

// mergeAndPut is one read-merge-write round of a flush. It reads only what
// the put needs and no tag covers — nothing at all in a steady flush — and
// a layout transition first re-reads the whole store copy, since it
// re-partitions every tuple. The result goes out in one writeLayout call:
// the extents holding dirty names, or every extent when the layout changes.
func (m *Middleware) mergeAndPut(ctx context.Context, d *descriptor) error {
	full := false
	if d.headTag == "" || len(d.untagged()) > 0 {
		sr, err := m.readStoredRing(ctx, d, true)
		if err != nil {
			return err
		}
		d.adopt(sr)
		full = sr.full
	}
	to := m.desiredLayout(d)
	if to != d.lay && !full {
		sr, err := m.readStoredRing(ctx, d, false)
		if err != nil {
			return err
		}
		d.adopt(sr)
		to = m.desiredLayout(d)
	}
	d.watermarks = d.watermarks.Set(m.node, d.nextSeq-1)
	which := d.dirtyShardSet()
	if to != d.lay {
		which = to.All()
	}
	return m.writeLayout(ctx, d, to, which)
}

// desiredLayout applies the split/merge policy: shard once the live-child
// count crosses the threshold (to the smallest power of two holding each
// extent at or under the threshold), grow only after the directory
// doubles past the current layout's capacity, and merge back to
// monolithic only after it shrinks below half the threshold. The wide
// hysteresis band keeps a directory hovering near a boundary from
// flapping between layouts. A zero (or negative) threshold — the default
// — performs no transitions at all, so existing deployments and the
// paper-figure benchmarks never see a manifest. A changed shard count is
// the next generation.
func (m *Middleware) desiredLayout(d *descriptor) core.ShardManifest {
	t, live, cur := m.profile.DirShardThreshold, d.local.Len(), d.lay.Shards
	want := cur
	switch {
	case t <= 0:
	case cur == 1 && live > t, cur > 1 && live > 2*t*cur:
		want = shardCountFor(live, t)
	case cur > 1 && live < t/2:
		want = 1
	}
	if want == cur {
		return d.lay
	}
	return core.ShardManifest{Shards: want, Gen: d.lay.Gen + 1}
}

// shardCountFor picks the smallest power-of-two shard count that brings
// the per-extent live count at or under the threshold, capped at
// core.MaxDirShards.
func shardCountFor(live, threshold int) int {
	s := 2
	for s < core.MaxDirShards && live > threshold*s {
		s *= 2
	}
	return s
}

// FlushAll flushes every dirty descriptor in the cache. One failing ring
// does not starve the ones that sort after it: the rest are still flushed
// and the failures are joined; only a cancelled ctx stops the pass.
func (m *Middleware) FlushAll(ctx context.Context) error {
	var failed error
	for _, d := range m.cachedDescs() {
		if err := m.flushCached(ctx, d); err != nil {
			failed = errors.Join(failed, err)
			if ctx.Err() != nil {
				break
			}
		}
	}
	return failed
}

// flushCached flushes one descriptor of FlushAll's snapshot in place. The
// merger is not a user access: going back through the cache would touch
// every descriptor's referenced bit each pass and wake, load and release
// again any ring released since the snapshot. Skipping a descriptor that is
// not resident loses nothing: only a clean one is released, and what
// Recover or a ring's collection dropped is meant to be gone.
func (m *Middleware) flushCached(ctx context.Context, d *descriptor) error {
	m.lockDesc(d)
	defer m.unlockDesc(d)
	if !d.resident.Load() {
		return nil
	}
	return m.flushLocked(ctx, d)
}

// handleGossip implements §3.3.2 phase 2 step 2: on receiving (N_i, H_j,
// t_k), the node aborts forwarding when its local timestamp already covers
// t_k (loop-back avoidance); otherwise it fetches the updated version from
// the cloud, merges it into its local version, and puts the gossip
// forward. If the store copy turns out to lack local tuples (a lost
// read-modify-write race), the missing children are re-marked dirty so the
// next flush repairs the ring object.
func (m *Middleware) handleGossip(ctx context.Context, msg gossip.Message) {
	d := m.lockedDesc(msg.Account, msg.NS)
	if msg.Version <= d.lastGossip {
		m.unlockDesc(d)
		return
	}
	d.lastGossip = msg.Version
	if !d.loaded {
		if err := m.load(ctx, d); err != nil {
			m.unlockDesc(d)
			return
		}
	} else if sr, err := m.readStoredRing(ctx, d, false); err == nil && sr.headTag != objstore.Absent {
		// Detect tuples the store copy is missing before merging.
		sr.ring.Clone().MergeFunc(d.local, d.noteChanged)
		d.adopt(sr)
	}
	m.unlockDesc(d)
	if m.bus != nil {
		m.bus.Broadcast(m.node, msg) // put it forward
	}
}
