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
	// shards/gen mirror the directory's store layout: 1 = one monolithic
	// ring object at RingKey, >1 = an H2DRX manifest there plus that many
	// sub-ring extents. gen is the manifest generation last observed.
	shards int
	gen    int64
	// extentTags[i] is the ETag of a stored version of extent i that local
	// is known to dominate: content this node fetched and merged, or put
	// itself. "" = none remembered. A flush that finds the store still
	// holding that ETag skips the read — merging it would change nothing.
	// One slot per extent of the current layout. A monolithic ring is a
	// one-extent layout whose extent is the object at RingKey: one slot, or
	// nil while nothing is remembered.
	extentTags []string
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
		shards:     1,
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

// ringTag is the remembered ETag of the monolithic ring object; "" when
// the directory is sharded or nothing is remembered.
func (d *descriptor) ringTag() string {
	if d.shards != 1 || len(d.extentTags) != 1 {
		return ""
	}
	return d.extentTags[0]
}

// extentKeys returns the store keys of the given extents of a shards-wide
// layout of this directory, in order.
func (d *descriptor) extentKeys(shards int, which []int) []string {
	keys := make([]string, len(which))
	for i, s := range which {
		keys[i] = core.ExtentKey(d.account, d.ns, s, shards)
	}
	return keys
}

// dirtyShardSet maps the dirty child names onto the current layout's
// extent indices, sorted for deterministic write order.
func (d *descriptor) dirtyShardSet() []int {
	set := make(map[int]struct{}, len(d.dirtyNames))
	for name := range d.dirtyNames {
		set[core.ShardOf(name, d.shards)] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
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

// storedRing is the decoded store representation of one directory ring:
// the merged tuple view, the flush watermarks, and the layout it was
// stored under.
type storedRing struct {
	ring   *core.NameRing
	wm     map[int]int
	shards int   // 1 = monolithic ring object
	gen    int64 // manifest generation (0 when monolithic)
	found  bool
	tags   []string // descriptor.extentTags once ring is merged
	// full reports that the descriptor, once it adopts this read, dominates
	// the whole stored state: ring holds every stored tuple, or the
	// monolithic ring object validated unchanged. A validated sharded read
	// covers only the extents it was asked about.
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
		d.shards, d.gen, d.extentTags = sr.shards, sr.gen, sr.tags
	}
}

// readStoredRing fetches a directory's store representation. The object
// at RingKey is either a monolithic NameRing or an H2DRX manifest; in the
// sharded case all extents are fetched in one batched window
// (objstore.MultiGet — the cluster charges it as one overlapped LPT
// fan-out) and merged. With validate set — the Background Merger's read —
// nothing is fetched that a remembered tag shows unchanged: a monolithic
// ring is HEADed first, and a manifest that still names the layout the
// descriptor knows narrows the read to the dirty extents the store holds
// a newer version of.
func (m *Middleware) readStoredRing(ctx context.Context, d *descriptor, validate bool) (storedRing, error) {
	if validate {
		if sr, ok := m.validateRing(ctx, d); ok {
			return sr, nil
		}
	}
	data, info, err := m.store.Get(ctx, d.key)
	switch {
	case errors.Is(err, objstore.ErrNotFound):
		return storedRing{shards: 1, full: true}, nil
	case err != nil:
		return storedRing{}, err
	}
	wm := parseWatermarks(info.Meta)
	if !core.IsShardManifest(data) {
		ring, derr := core.DecodeNameRing(data)
		if derr != nil {
			return storedRing{}, fmt.Errorf("h2fs: ring %s/%s corrupt: %w", d.account, d.ns, derr)
		}
		sr := storedRing{ring: ring, wm: wm, shards: 1, found: true, full: true}
		if d.loaded {
			// A load remembers no tag — a reload is the cold-lookup hot
			// path and stays free of the slot's allocation — so the first
			// flush after one reads in full.
			sr.tags = []string{info.ETag}
		}
		return sr, nil
	}
	man, derr := core.DecodeShardManifest(data)
	if derr != nil {
		return storedRing{}, fmt.Errorf("h2fs: shard manifest %s/%s corrupt: %w", d.account, d.ns, derr)
	}
	if validate && man.Shards == d.shards && man.Gen == d.gen {
		sr, err := m.revalidate(ctx, d, d.dirtyShardSet())
		sr.wm = wm
		return sr, err
	}
	sr := storedRing{wm: wm, shards: man.Shards, gen: man.Gen, found: true, full: true, tags: make([]string, man.Shards)}
	sr.ring, err = m.fetchExtents(ctx, d, man.Shards, shardRange(man.Shards), sr.tags)
	return sr, err
}

// validateRing is the O(1) read of a monolithic flush: one HEAD of the
// ring object, and when it still carries the remembered ETag local already
// dominates it — nothing to fetch, decode or merge. The watermarks come
// from the HEAD's metadata: the ETag hashes content only, and a peer may
// have advanced them under identical tuples. Anything else — no tag, a
// different one, not found, any HEAD error — reports false and the caller
// GETs, so errors, retries and a peer's split are handled in one place.
func (m *Middleware) validateRing(ctx context.Context, d *descriptor) (storedRing, bool) {
	tag := d.ringTag()
	if tag == "" {
		return storedRing{}, false
	}
	if info, err := m.store.Head(ctx, d.key); err == nil && info.ETag == tag {
		m.reg.Inc("flush.validated", 1)
		return storedRing{wm: parseWatermarks(info.Meta), shards: 1, found: true, full: true, tags: d.extentTags}, true
	}
	m.reg.Inc("flush.refetched", 1)
	return storedRing{}, false
}

// revalidate is the O(dirty) read of a sharded flush: one batched HEAD
// over the given extents of the descriptor's layout, then a fetch of only
// those whose stored ETag is not the one remembered — a peer rewrote them,
// or this node never read them. The HEAD-to-put window it opens is the
// GET-to-put window of a full read; gossip repairs a lost race in both.
func (m *Middleware) revalidate(ctx context.Context, d *descriptor, which []int) (sr storedRing, err error) {
	sr = storedRing{shards: d.shards, gen: d.gen, found: true, tags: slices.Clone(d.extentTags)}
	var stale []int
	for i, h := range objstore.MultiHead(ctx, m.store, d.extentKeys(d.shards, which)) {
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
	sr.ring, err = m.fetchExtents(ctx, d, d.shards, stale, sr.tags)
	return sr, err
}

// fetchExtents reads the given extents of a shards-wide layout in one
// batched window and returns them merged, recording in tags the ETag of
// each one read. A referenced-but-missing extent is tolerated as empty:
// patch replay and gossip re-converge the tuples it held.
func (m *Middleware) fetchExtents(ctx context.Context, d *descriptor, shards int, which []int, tags []string) (*core.NameRing, error) {
	if len(which) == 0 {
		return nil, nil
	}
	extents := make([]*core.NameRing, len(which))
	for i, res := range objstore.MultiGet(ctx, m.store, d.extentKeys(shards, which)) {
		if errors.Is(res.Err, objstore.ErrNotFound) {
			tags[which[i]] = ""
			continue
		}
		if res.Err != nil {
			return nil, res.Err
		}
		ext, derr := core.DecodeNameRing(res.Data)
		if derr != nil {
			return nil, fmt.Errorf("h2fs: extent %d of %s/%s corrupt: %w", which[i], d.account, d.ns, derr)
		}
		extents[i], tags[which[i]] = ext, res.Info.ETag
	}
	return core.MergedExtents(extents), nil
}

// shardRange lists every extent index of a shards-wide layout.
func shardRange(shards int) []int {
	all := make([]int, shards)
	for i := range all {
		all[i] = i
	}
	return all
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
	if !d.loaded {
		if err := m.load(ctx, d); err != nil {
			return err
		}
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
		clear(d.extentTags) // the strawman is by definition the naive GET-merge-PUT: it trusts no tag
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

// Flush runs the Background Merger (§4.5) for one ring: the store copy is
// read, merged with the local version (and with any watermark advances
// from peers), tombstones past the TTL are compacted, the result is put
// back, and this node's folded patch objects are deleted. If a gossip
// broadcaster is configured, the update is advertised. Flush is the
// "intra-node merging" step made durable.
func (m *Middleware) Flush(ctx context.Context, account, ns string) error {
	d := m.lockedDesc(account, ns)
	defer m.unlockDesc(d)
	if !d.loaded {
		if err := m.load(ctx, d); err != nil {
			return err
		}
	}
	return m.flushLocked(ctx, d)
}

// flushLocked is Flush's body; the caller holds the descriptor monitor.
//
// The read half validates by ETag in either layout and fetches only what
// a peer rewrote. The write half depends on the layout. A monolithic ring
// under the DirShardThreshold is rewritten whole, one object at RingKey.
// A sharded ring in steady state reads and rewrites only the extents
// holding dirty names, plus the manifest (O(m/shards) bytes per flush
// each way, not O(m)). A layout transition — split, re-split, or merge
// back to monolithic — is write-new-then-flip: the new representation
// lands on fresh keys first, the manifest (or ring) put at RingKey is the
// atomic flip, and the old representation is deleted last, so a crash at
// any point leaves either the old state plus unreferenced garbage (Scrub
// reclaims it) or the new state complete.
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
	want := m.desiredShards(d.local.Len(), d.shards)
	if want != d.shards && !sr.full {
		// A transition re-partitions every tuple, so it starts over from
		// the full store state.
		if sr, err = m.readStoredRing(ctx, d, false); err != nil {
			return err
		}
		d.adopt(sr)
		m.compact(d)
		want = m.desiredShards(d.local.Len(), d.shards)
	}
	d.watermarks[m.node] = d.nextSeq - 1
	switch {
	case d.shards == 1 && want == 1:
		// Monolithic steady state. A failed put forgets the tag: the
		// store may hold either version.
		if d.extentTags, err = m.putRing(ctx, d); err != nil {
			return fmt.Errorf("h2fs: flush ring: %w", err)
		}
	case want == d.shards:
		if err := m.flushShardedSteady(ctx, d); err != nil {
			return err
		}
	default:
		if err := m.transitionShards(ctx, d, want); err != nil {
			return err
		}
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

// putRing writes local as the monolithic ring object at RingKey and
// returns the one-slot tag set remembering what landed.
func (m *Middleware) putRing(ctx context.Context, d *descriptor) ([]string, error) {
	data := core.EncodeNameRing(d.local)
	if err := m.store.Put(ctx, d.key, data, encodeWatermarks(d.watermarks)); err != nil {
		return nil, err
	}
	return []string{objstore.ETag(data)}, nil
}

// putExtents encodes the given extents of local under a shards-wide
// layout in one pass and writes them in one batched put. tags remembers
// the ETag of every extent that landed and forgets the ones that failed:
// the store may hold either version of those.
func (m *Middleware) putExtents(ctx context.Context, d *descriptor, shards int, which []int, tags []string) error {
	reqs := make([]objstore.PutReq, len(which))
	for i, data := range core.EncodeNameRingExtents(d.local, shards, which) {
		reqs[i] = objstore.PutReq{Name: core.ExtentKey(d.account, d.ns, which[i], shards), Data: data}
	}
	var failed error
	for i, err := range objstore.MultiPut(ctx, m.store, reqs) {
		if err != nil {
			tags[which[i]] = ""
			failed = errors.Join(failed, err)
			continue
		}
		tags[which[i]] = objstore.ETag(reqs[i].Data)
	}
	return failed
}

// flushShardedSteady writes a sharded directory whose layout is not
// changing: one batched put covers the dirty extents, then the manifest
// is rewritten to publish the watermark advance. Extents go first — if
// the manifest put never lands, the extents are still consistent (they
// hold a superset the patch chain re-converges) and the un-advanced
// watermarks just replay the patches.
func (m *Middleware) flushShardedSteady(ctx context.Context, d *descriptor) error {
	if err := m.putExtents(ctx, d, d.shards, d.dirtyShardSet(), d.extentTags); err != nil {
		return fmt.Errorf("h2fs: flush extent: %w", err)
	}
	if err := m.store.Put(ctx, d.key,
		core.EncodeShardManifest(core.ShardManifest{Shards: d.shards, Gen: d.gen}),
		encodeWatermarks(d.watermarks)); err != nil {
		return fmt.Errorf("h2fs: flush manifest: %w", err)
	}
	return nil
}

// transitionShards changes a directory's layout (split, re-split, or
// merge back to monolithic) with the write-new-then-flip protocol. The
// shard count is part of every extent key, so the new representation
// never collides with the old one; the single put at RingKey is the
// atomic flip between them. The caller has merged the full store state.
func (m *Middleware) transitionShards(ctx context.Context, d *descriptor, want int) error {
	oldShards := d.shards
	newGen := d.gen + 1
	var tags []string
	var err error
	if want > 1 {
		tags = make([]string, want)
		if err = m.putExtents(ctx, d, want, shardRange(want), tags); err != nil {
			return fmt.Errorf("h2fs: write split extent: %w", err)
		}
		if err = m.store.Put(ctx, d.key,
			core.EncodeShardManifest(core.ShardManifest{Shards: want, Gen: newGen}),
			encodeWatermarks(d.watermarks)); err != nil {
			return fmt.Errorf("h2fs: flip manifest: %w", err)
		}
	} else if tags, err = m.putRing(ctx, d); err != nil {
		// Merging back to monolithic: the ring object put at RingKey
		// overwrites the manifest and is itself the flip.
		return fmt.Errorf("h2fs: flip ring: %w", err)
	}
	d.shards, d.gen, d.extentTags = want, newGen, tags
	if oldShards > 1 {
		// Old extents are unreferenced after the flip; a failure here
		// leaves garbage for Scrub, never an inconsistent directory.
		for _, err := range objstore.MultiDelete(ctx, m.store, core.ExtentKeys(d.account, d.ns, oldShards)) {
			if err != nil && !errors.Is(err, objstore.ErrNotFound) {
				return fmt.Errorf("h2fs: collect old extent: %w", err)
			}
		}
	}
	if want > oldShards {
		m.reg.Inc("dirShard.splits", 1)
	} else {
		m.reg.Inc("dirShard.merges", 1)
	}
	oldN, newN := oldShards, want
	if oldN == 1 {
		oldN = 0
	}
	if newN == 1 {
		newN = 0
	}
	m.reg.Inc("dirShard.extents", int64(newN-oldN))
	return nil
}

// desiredShards applies the split/merge policy: shard once the live-child
// count crosses the threshold (to the smallest power of two holding each
// extent at or under the threshold), grow only after the directory
// doubles past the current layout's capacity, and merge back to
// monolithic only after it shrinks below half the threshold. The wide
// hysteresis band keeps a directory hovering near a boundary from
// flapping between layouts. A zero (or negative) threshold — the default
// — performs no transitions at all, so existing deployments and the
// paper-figure benchmarks never see a manifest.
func (m *Middleware) desiredShards(live, cur int) int {
	t := m.profile.DirShardThreshold
	if t <= 0 {
		return cur
	}
	if cur <= 1 {
		if live <= t {
			return 1
		}
		return shardCountFor(live, t)
	}
	if live > 2*t*cur {
		return shardCountFor(live, t)
	}
	if live < t/2 {
		return 1
	}
	return cur
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
