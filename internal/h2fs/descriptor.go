package h2fs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

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
	key     string // core.RingKey(account, ns): the cache key and the ring object's name

	// local is this node's local version (§3.3.2 step 1) and
	// watermarks[node] the highest patch sequence of that node already
	// folded into the flushed ring object. Both are nil until the first
	// store read is adopted: a load owns what it decoded.
	local      *core.NameRing
	watermarks map[int]int
	loaded     bool
	// settled marks a descriptor re-created over the stub a clean eviction
	// left (descache.go): this node's own patch chain is known empty, so
	// load skips probing it. Written once by desc before the descriptor is
	// published, read under mu.
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
	// tags[i] is the ETag of a stored version of extent i that local is
	// known to dominate: content this node fetched and merged, or put
	// itself. "" = none remembered. A flush that finds the store still
	// holding that ETag skips the read — merging it would change nothing.
	// One slot per extent of lay, or nil while nothing is remembered.
	tags []string
	// evicted marks a descriptor removed from the cache while a caller
	// still held its pointer; lockedDesc retries on seeing it. Guarded by
	// mu.
	evicted bool
	// hotter and colder thread the owning stripe's recency list (see
	// descStripe.touch). Guarded by the stripe's lock, not mu.
	hotter, colder *descriptor
	// lastGossip is the newest advertisement timestamp already processed
	// for this ring; older or equal adverts are not forwarded (the
	// loop-back avoidance of §3.3.2). Content timestamps cannot serve
	// here: a node whose own write is globally newest would wrongly
	// conclude it has seen everything.
	lastGossip int64
}

func newDescriptor(account, ns, key string) *descriptor {
	return &descriptor{
		account:    account,
		ns:         ns,
		key:        key,
		dirtyNames: map[string]struct{}{},
		lay:        core.ShardManifest{Shards: 1},
	}
}

// noteChanged records one changed child; it is the MergeFunc/CompactFunc
// callback every local mutation routes through, and what lets a sharded
// flush rewrite only the extents that actually changed.
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

// parseWatermarks extracts per-node merge watermarks from ring object
// metadata ("wm.<node>" -> seq).
func parseWatermarks(meta map[string]string) map[int]int {
	wm := map[int]int{}
	for k, v := range meta {
		rest, ok := strings.CutPrefix(k, "wm.")
		if !ok {
			continue
		}
		node, err1 := strconv.Atoi(rest)
		seq, err2 := strconv.Atoi(v)
		if err1 == nil && err2 == nil {
			wm[node] = seq
		}
	}
	return wm
}

func encodeWatermarks(wm map[int]int) map[string]string {
	meta := make(map[string]string, len(wm))
	for node, seq := range wm {
		meta["wm."+strconv.Itoa(node)] = strconv.Itoa(seq)
	}
	return meta
}

// storedRing is what one store read tells a descriptor about its
// directory's ring: the merged tuples it fetched, the flush watermarks, and
// the layout they are stored under.
type storedRing struct {
	ring  *core.NameRing
	wm    map[int]int
	lay   core.ShardManifest
	found bool
	tags  []string // descriptor.tags once ring is merged
	// full reports that the descriptor, once it adopts this read, dominates
	// the whole stored state: ring holds every stored tuple, or the one
	// extent of a monolithic layout validated unchanged. A validated read of
	// more extents covers only the ones it was asked about.
	full bool
}

// adopt folds a store read into the descriptor: the tuples (which never
// dirty an extent — they come from already-flushed state), the peers'
// watermark advances, and the layout with its extent tags. Dirty names
// are names, not indices, so pending dirt remaps onto a layout a peer
// transitioned to.
func (d *descriptor) adopt(sr storedRing) {
	if d.local == nil {
		// The first read: own the decoded ring and the parsed watermarks
		// instead of merging them tuple by tuple into empty copies.
		d.local, d.watermarks = sr.ring, sr.wm
		if d.local == nil {
			d.local = core.NewNameRing()
		}
		if d.watermarks == nil {
			d.watermarks = map[int]int{}
		}
	} else if sr.found {
		d.local.Merge(sr.ring)
		for node, seq := range sr.wm {
			if seq > d.watermarks[node] {
				d.watermarks[node] = seq
			}
		}
	}
	if sr.found {
		d.lay, d.tags = sr.lay, sr.tags
	}
}

// readStoredRing reads a directory's store representation: the head object
// at RingKey, then every extent of the layout it names. With validate set —
// the Background Merger's read — nothing is fetched that a remembered tag
// shows unchanged, and the layout decides only how the head is asked. The
// one extent of a monolithic layout is the head, so a HEAD of it validates
// the tuples and brings the watermarks (the ETag hashes content only, and a
// peer may have advanced them under identical tuples); no tag, a different
// one, not found or any HEAD error falls through to the GET, so errors,
// retries and a peer's split are handled in one place. A manifest is a few
// bytes and is fetched; if it still names the layout the descriptor knows,
// the read narrows to the dirty extents (revalidate).
func (m *Middleware) readStoredRing(ctx context.Context, d *descriptor, validate bool) (storedRing, error) {
	headIsExtent := d.lay.Shards == 1
	if validate && headIsExtent && len(d.tags) == 1 && d.tags[0] != "" {
		if info, err := m.store.Head(ctx, d.key); err == nil && info.ETag == d.tags[0] {
			m.reg.Inc("flush.validated", 1)
			return storedRing{wm: parseWatermarks(info.Meta), lay: d.lay, found: true, full: true, tags: d.tags}, nil
		}
		m.reg.Inc("flush.refetched", 1)
	}
	h, err := readHead(ctx, m.store, d.account, d.ns, d.key)
	switch {
	case errors.Is(err, objstore.ErrNotFound):
		return storedRing{lay: core.ShardManifest{Shards: 1}, full: true}, nil
	case err != nil:
		return storedRing{}, err
	}
	wm := parseWatermarks(h.Head.Meta)
	if validate && !headIsExtent && h.Layout == d.lay {
		sr, err := m.revalidate(ctx, d, d.dirtyShardSet())
		sr.wm = wm
		return sr, err
	}
	ring, tags, err := h.readAll(ctx, m.store, d.account, d.ns, d.loaded)
	return storedRing{ring: ring, wm: wm, lay: h.Layout, found: true, tags: tags, full: true}, err
}

// revalidate is the O(dirty) read of a flush over many extents: one batched
// HEAD over the given extents of the descriptor's layout, then a fetch of
// only those whose stored ETag is not the one remembered — a peer rewrote
// them, or this node never read them. A HEAD that fails is the flush's
// failure: unlike the head object there is no cheaper-than-it read to fall
// back on. The HEAD-to-put window it opens is the GET-to-put window of a
// full read; gossip repairs a lost race in both.
func (m *Middleware) revalidate(ctx context.Context, d *descriptor, which []int) (sr storedRing, err error) {
	sr = storedRing{lay: d.lay, found: true, tags: slices.Clone(d.tags)}
	var stale []int
	for i, h := range objstore.MultiHead(ctx, m.store, d.lay.Keys(d.account, d.ns, which)) {
		switch s := which[i]; {
		case errors.Is(h.Err, objstore.ErrNotFound): // nothing stored, nothing to merge
		case h.Err != nil:
			return storedRing{}, h.Err
		case sr.tags[s] == "" || sr.tags[s] != h.Info.ETag:
			stale = append(stale, s)
		}
	}
	m.reg.Inc("flush.validated", int64(len(which)-len(stale)))
	m.reg.Inc("flush.refetched", int64(len(stale)))
	sr.ring, err = fetchExtents(ctx, m.store, d.account, d.ns, d.lay, stale, sr.tags)
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
	// descriptor is settled: its chain was empty when it was evicted clean
	// and nobody else writes it, so the probe could only miss.
	seq := d.watermarks[m.node] + 1
	if d.settled {
		m.reg.Inc("descCache.probes.skipped", 1)
	} else if seq, err = m.replayChain(ctx, d, m.node, seq); err != nil {
		return err
	}
	d.nextSeq = seq
	d.firstUnflushed = d.watermarks[m.node] + 1
	// Replay peers' unmerged patch chains too, in sorted node order for
	// determinism: after a restart the flushed ring object may trail
	// patches peers have already acknowledged to their clients, and a
	// reloading middleware must not serve a view missing those updates.
	// Peers unknown to the watermarks (never flushed) reconverge through
	// gossip instead.
	var peers []int // usually none: a lone middleware's reload allocates nothing here
	for node := range d.watermarks {
		if node != m.node {
			peers = append(peers, node)
		}
	}
	sort.Ints(peers)
	for _, node := range peers {
		if _, err := m.replayChain(ctx, d, node, d.watermarks[node]+1); err != nil {
			return err
		}
	}
	d.loaded = true
	return nil
}

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
func (m *Middleware) withRing(ctx context.Context, account, ns string, fn func(*core.NameRing) error) error {
	d := m.lockedDesc(account, ns)
	defer m.unlockDesc(d)
	if !d.loaded {
		if err := m.load(ctx, d); err != nil {
			return err
		}
	} else {
		m.chargeRingConsult(ctx)
	}
	return fn(d.local)
}

// lookupChild returns the tuple for one child of a directory, counting a
// single ring consult.
func (m *Middleware) lookupChild(ctx context.Context, account, ns, name string) (core.Tuple, bool, error) {
	var t core.Tuple
	var ok bool
	err := m.withRing(ctx, account, ns, func(r *core.NameRing) error {
		t, ok = r.Get(name)
		return nil
	})
	return t, ok, err
}

// liveChildren snapshots the live (non-tombstoned) tuples of a directory.
func (m *Middleware) liveChildren(ctx context.Context, account, ns string) ([]core.Tuple, error) {
	var out []core.Tuple
	err := m.withRing(ctx, account, ns, func(r *core.NameRing) error {
		out = r.Live()
		return nil
	})
	return out, err
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
	ring := core.NewNameRing()
	for _, t := range tuples {
		ring.Set(t)
	}
	if m.syncProto {
		// Strawman synchronous protocol (§3.3.1): the update is applied
		// to the NameRing object in the cloud before the operation
		// returns, serialized by the ring's descriptor monitor. Stronger
		// consistency, but every mutation pays a read-modify-write and
		// hot directories bottleneck on the lock — the drawbacks that
		// motivate the asynchronous patch protocol.
		d.local.MergeFunc(ring, d.noteChanged)
		clear(d.tags) // the strawman is by definition the naive GET-merge-PUT: it trusts no tag
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
// cache may evict a clean descriptor between the lookup and the lock, so
// acquisition re-checks the evicted flag and retries against the cache —
// a fresh descriptor (reloaded from the flushed store state) replaces the
// one that was dropped.
func (m *Middleware) lockedDesc(account, ns string) *descriptor {
	for {
		d := m.desc(account, ns)
		m.lockDesc(d)
		if !d.evicted {
			return d
		}
		m.unlockDesc(d)
	}
}

// flushLocked runs the Background Merger (§4.5) for one ring — the
// "intra-node merging" step made durable; the caller holds the descriptor
// monitor. The store copy is read, validating by ETag and fetching only
// what a peer rewrote, merged with the local version and the peers'
// watermark advances, tombstones past the TTL are compacted, the result is
// put back by one writeLayout call — the extents holding dirty names, or
// every extent when the layout changes — this node's folded patch objects
// are deleted, and the update is advertised to the gossip bus, if any.
func (m *Middleware) flushLocked(ctx context.Context, d *descriptor) error {
	if d.clean() {
		return nil
	}
	// Read-merge-write against the store copy. No extent is written that
	// this flush has not validated or fetched: the read covers the dirty
	// extents, and the ones only compaction dirties are validated late.
	sr, err := m.readStoredRing(ctx, d, true)
	if err != nil {
		return err
	}
	d.adopt(sr)
	if late := m.compact(d); len(late) > 0 && !sr.full {
		lr, err := m.revalidate(ctx, d, late)
		if err != nil {
			return err
		}
		d.adopt(lr)
	}
	to := m.desiredLayout(d)
	if to != d.lay && !sr.full {
		// A transition re-partitions every tuple, so it starts over from
		// the full store state.
		if sr, err = m.readStoredRing(ctx, d, false); err != nil {
			return err
		}
		d.adopt(sr)
		m.compact(d)
		to = m.desiredLayout(d)
	}
	d.watermarks[m.node] = d.nextSeq - 1
	which := d.dirtyShardSet()
	if to != d.lay {
		which = to.All()
	}
	if err := m.writeLayout(ctx, d, to, which); err != nil {
		return err
	}
	for seq := d.firstUnflushed; seq < d.nextSeq; seq++ {
		// A missing patch object was already collected by a peer's merge.
		err := m.store.Delete(ctx, core.PatchKey(d.account, d.ns, m.node, seq))
		if err != nil && !errors.Is(err, objstore.ErrNotFound) {
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

// compact drops tombstones past the TTL from local. Their names turn
// dirty, so the store copy of each one's extent is rewritten without it;
// the extents that were not dirty before are returned, sorted.
func (m *Middleware) compact(d *descriptor) []int {
	if m.tombTTL <= 0 {
		return nil
	}
	before := d.dirtyShardSet()
	d.local.CompactFunc(m.now()-m.tombTTL.Nanoseconds(), d.noteChanged)
	return slices.DeleteFunc(d.dirtyShardSet(), func(s int) bool {
		_, was := slices.BinarySearch(before, s)
		return was
	})
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
// every descriptor's recency each pass and re-create, load and evict
// again any ring evicted since the snapshot. Skipping a dropped descriptor
// loses nothing: only a clean one is evicted, and what Recover or a ring's
// collection dropped is meant to be gone.
func (m *Middleware) flushCached(ctx context.Context, d *descriptor) error {
	m.lockDesc(d)
	defer m.unlockDesc(d)
	if d.evicted {
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
	} else if sr, err := m.readStoredRing(ctx, d, false); err == nil && sr.found {
		// Detect tuples the store copy is missing before merging.
		sr.ring.Clone().MergeFunc(d.local, d.noteChanged)
		d.adopt(sr)
	}
	m.unlockDesc(d)
	if m.bus != nil {
		m.bus.Broadcast(m.node, msg) // put it forward
	}
}
