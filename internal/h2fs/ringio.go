package h2fs

import (
	"context"
	"errors"
	"fmt"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// The ring layer's store I/O: one reader and one writer for every layout.
// The object at a directory's RingKey names the layout (core.DecodeLayout)
// and carries the flush watermarks in its metadata. The monolithic layout
// is the n = 1 case, whose one extent is that object; it is told apart
// twice, in readAll and in writeLayout.

// RingRead is one full read of a directory's ring layer.
type RingRead struct {
	Ring    *core.NameRing      // every stored tuple, the extents merged
	Head    objstore.ObjectInfo // of the object at RingKey; Meta carries the watermarks
	Layout  core.ShardManifest
	Extents []string // keys of the extent objects the head references besides itself
	head    []byte   // the object at RingKey: the one extent of a monolithic layout
}

// ReadRing reads a directory's ring as the store holds it: the object at
// RingKey, then — when that is a manifest — every extent it references, in
// one batched window, merged. A referenced-but-missing extent reads as
// empty (patch replay and gossip re-converge the tuples it held); every
// other failure, transport or decode, is returned, so a caller sees the
// complete stored ring or an error and never a silently shorter one. A
// missing head object is objstore.ErrNotFound.
func ReadRing(ctx context.Context, s objstore.Store, account, ns string) (RingRead, error) {
	rr, err := readHead(ctx, s, account, ns, core.RingKey(account, ns))
	if err != nil {
		return RingRead{}, err
	}
	rr.Extents = rr.Layout.Extents(account, ns)
	rr.Ring, _, err = rr.readAll(ctx, s, account, ns)
	rr.head = nil // decoded; a caller that keeps the read should not keep the bytes too
	return rr, err
}

// readHead is the first half of ReadRing: it fetches the object at key, the
// RingKey of account/ns, and decodes the layout it names.
func readHead(ctx context.Context, s objstore.Store, account, ns, key string) (RingRead, error) {
	data, info, err := s.Get(ctx, key)
	if err != nil {
		return RingRead{}, err
	}
	lay, err := core.DecodeLayout(data)
	if err != nil {
		return RingRead{}, fmt.Errorf("h2fs: shard manifest %s/%s corrupt: %w", account, ns, err)
	}
	return RingRead{Head: info, Layout: lay, head: data}, nil
}

// readAll is the second half: every tuple stored under the head's layout,
// and for a sharded one tags[i], the ETag extent i was read at. The head
// of a monolithic layout is the one extent, so nothing more is fetched,
// and its tag is the head's.
func (rr RingRead) readAll(ctx context.Context, s objstore.Store, account, ns string) (*core.NameRing, []string, error) {
	if rr.Layout.Shards == 1 {
		ring, err := core.DecodeNameRing(rr.head)
		if err != nil {
			return nil, nil, fmt.Errorf("h2fs: ring %s/%s corrupt: %w", account, ns, err)
		}
		return ring, nil, nil
	}
	tags := make([]string, rr.Layout.Shards)
	ring, err := fetchExtents(ctx, s, account, ns, rr.Layout, rr.Layout.All(), tags)
	return ring, tags, err
}

// fetchExtents reads the given extents of a layout in one batched window
// (objstore.MultiGet — the cluster charges it as one overlapped LPT
// fan-out) and returns them merged, recording in tags the ETag of each one
// read, objstore.Absent for one not stored. It is the only code that
// follows a manifest to its extents.
func fetchExtents(ctx context.Context, s objstore.Store, account, ns string, lay core.ShardManifest, which []int, tags []string) (*core.NameRing, error) {
	if len(which) == 0 {
		return nil, nil
	}
	extents := make([]*core.NameRing, len(which))
	for i, res := range objstore.MultiGet(ctx, s, lay.Keys(account, ns, which)) {
		if errors.Is(res.Err, objstore.ErrNotFound) {
			tags[which[i]] = objstore.Absent
			continue
		}
		if res.Err != nil {
			return nil, res.Err
		}
		ext, derr := core.DecodeNameRing(res.Data)
		if derr != nil {
			return nil, fmt.Errorf("h2fs: extent %d of %s/%s corrupt: %w", which[i], account, ns, derr)
		}
		extents[i], tags[which[i]] = ext, res.Info.ETag
	}
	return core.MergedExtents(extents), nil
}

// writeLayout is the write half of a flush: it puts the extents which of
// local under the layout to, then the object at RingKey with the
// watermarks — for the monolithic layout those are the same put — and, iff
// to is not the layout the directory is stored under, collects the extents
// of the old one. Extents go first either way. In steady state a head put
// that never lands leaves extents holding a superset the patch chain
// re-converges, under un-advanced watermarks that just replay it. In a
// transition the shard count is part of every extent key, so the new
// layout never collides with the old one and the put at RingKey is the
// atomic flip: a crash at any point leaves the old state plus unreferenced
// garbage for Scrub, or the new state complete.
//
// Every put over a version this node remembers names its tag (IfMatch):
// the object at RingKey always, a steady flush's extents too. A
// transition's extents are new keys that nothing references before the
// flip, and go unconditionally. The store reports the ETag it sealed for
// each put, which becomes the tag; a failed put forgets it, since the store
// may hold either version. A transition's tags are adopted only with its
// flip.
func (m *Middleware) writeLayout(ctx context.Context, d *descriptor, to core.ShardManifest, which []int) error {
	tags := d.tags
	if to.Shards == 1 {
		tags = nil
	} else if to != d.lay {
		tags = make([]string, to.Shards)
	}
	meta := core.EncodeWatermarks(d.watermarks)
	written := 0 // extent objects put beside the head
	var head []byte
	if to.Shards == 1 {
		head = core.EncodeNameRing(d.local)
	} else {
		reqs := make([]objstore.PutReq, len(which))
		for i, data := range core.EncodeNameRingExtents(d.local, to.Shards, which) {
			reqs[i] = objstore.PutReq{Name: to.Key(d.account, d.ns, which[i]), Data: data, IfMatch: tags[which[i]]}
		}
		var failed error
		for i, err := range objstore.MultiPut(ctx, m.store, reqs) {
			tags[which[i]] = reqs[i].ETag // what the store sealed; "" for a slot that failed
			failed = errors.Join(failed, err)
		}
		if failed != nil {
			return fmt.Errorf("h2fs: flush extent: %w", failed)
		}
		written, head = len(reqs), core.EncodeShardManifest(to)
	}
	req := []objstore.PutReq{{Name: d.key, Data: head, Meta: meta, IfMatch: d.headTag}}
	err := objstore.MultiPut(ctx, m.store, req)[0]
	if d.headTag = req[0].ETag; err != nil {
		return fmt.Errorf("h2fs: flush ring: %w", err)
	}
	old := d.lay
	d.lay, d.tags = to, tags
	if to == old {
		return nil
	}
	// Old extents are unreferenced after the flip; a failure here leaves
	// garbage for Scrub, never an inconsistent directory.
	collected := old.Extents(d.account, d.ns)
	if len(collected) > 0 { // a split of one extent leaves none behind, and asks the store nothing
		if err := m.deleteAll(ctx, collected); err != nil {
			return fmt.Errorf("h2fs: collect old extent: %w", err)
		}
	}
	if to.Shards > old.Shards {
		m.reg.Inc("dirShard.splits", 1)
	} else {
		m.reg.Inc("dirShard.merges", 1)
	}
	m.reg.Inc("dirShard.extents", int64(written-len(collected)))
	return nil
}
