package main

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/storemw"
)

// probeStore is the benchmark's interposer at the objstore.Store
// boundary, passed as h2fs.Config.Store in the counted and traced passes.
// It is a pure delegating store: it charges no virtual time of its own
// and forwards batches as batches, so the simulated cost and the
// cluster's own counters are the same with and without it.
type probeStore struct {
	inner objstore.Store

	mu sync.Mutex
	c  counts
	// maintenance marks that the single client is inside MaintainOnce;
	// store traffic is then attributed to the Background Merger.
	maintenance atomic.Bool

	tr    *tracer // nil: no spans
	rec   *[]call // nil: no call stream
	codec bool    // time the public codecs over ring-class payloads
}

var (
	_ objstore.Store   = (*probeStore)(nil)
	_ objstore.Batcher = (*probeStore)(nil)
	_ storemw.Wrapper  = (*probeStore)(nil)
)

// Unwrap implements storemw.Wrapper.
func (p *probeStore) Unwrap() objstore.Store { return p.inner }

// prim is a store primitive as the cloud bills it: a batch of n objects
// is n requests of its primitive.
type prim uint8

const (
	pGet prim = iota
	pPut
	pHead
	pDelete
	pCopy
	numPrims
)

var (
	primNames   = [numPrims]string{"get", "put", "head", "delete", "copy"}
	primPlurals = [numPrims]string{"gets", "puts", "heads", "deletes", "copies"}
)

// keyClass groups object keys by what the object is.
type keyClass uint8

const (
	classRing  keyClass = iota // ring objects, shard manifests and extents
	classPatch                 // NameRing patches
	classData                  // everything else: file content, directory objects, root records
	numClasses
)

var classNames = [numClasses]string{"ring", "patch", "data"}

const ringMarker = "::/NameRing/"

func classify(key string) keyClass {
	i := strings.Index(key, ringMarker)
	if i < 0 {
		return classData
	}
	if strings.HasPrefix(key[i+len(ringMarker):], ".Node") {
		return classPatch
	}
	return classRing
}

func isRingKey(key string) bool { return strings.HasSuffix(key, ringMarker) }

// counts is everything the probe tallies. All fields are additive, so a
// measured section is the difference of two snapshots.
type counts struct {
	Calls       int64           // store calls; a Multi* call counts once
	Items       [numPrims]int64 // billed requests per primitive
	BytesIn     int64           // payload bytes sent to the cloud
	BytesOut    int64           // payload bytes received from the cloud
	Class       [numClasses]int64
	RingLoads   int64 // RingKey GETs outside maintenance: descriptor misses
	PatchProbes int64 // patch-key GETs outside maintenance
	ProbeMisses int64 // of those, the ones answered NotFound
	FlushReqs   int64 // billed requests during maintenance
	FlushRead   int64 // payload bytes read during maintenance
	FlushWrite  int64 // payload bytes written during maintenance

	DecodeNs    int64 // public-codec decode time over ring-class payloads
	EncodeNs    int64 // public-codec encode time over written payloads
	CodecBytes  int64
	CodecTuples int64
}

// plus returns c + sign*o, field by field.
func (c counts) plus(o counts, sign int64) counts {
	c.Calls += sign * o.Calls
	for i := range c.Items {
		c.Items[i] += sign * o.Items[i]
	}
	c.BytesIn += sign * o.BytesIn
	c.BytesOut += sign * o.BytesOut
	for i := range c.Class {
		c.Class[i] += sign * o.Class[i]
	}
	c.RingLoads += sign * o.RingLoads
	c.PatchProbes += sign * o.PatchProbes
	c.ProbeMisses += sign * o.ProbeMisses
	c.FlushReqs += sign * o.FlushReqs
	c.FlushRead += sign * o.FlushRead
	c.FlushWrite += sign * o.FlushWrite
	c.DecodeNs += sign * o.DecodeNs
	c.EncodeNs += sign * o.EncodeNs
	c.CodecBytes += sign * o.CodecBytes
	c.CodecTuples += sign * o.CodecTuples
	return c
}

func (c counts) sub(o counts) counts { return c.plus(o, -1) }

func (c counts) requests() int64 {
	var n int64
	for _, v := range c.Items {
		n += v
	}
	return n
}

func (p *probeStore) snapshot() counts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.c
}

// call is one recorded store call: enough to replay it, with payloads
// reduced to their sizes, against the layers below the boundary.
type call struct {
	prim  prim
	multi bool
	rng   bool // GetRange
	key   string
	dst   string
	keys  []string
	size  int
	sizes []int
	meta  map[string]string
	errs  int // requests of this call that failed; a replay must fail as many
}

// booking collects what one store call adds to the tallies, outside the
// probe's lock.
type booking struct {
	d           counts
	errs        int
	maintenance bool
}

// book opens a booking, or returns nil on a tracing probe, which books
// nothing: counts come from the counted pass, and bookkeeping inside an
// op span would be charged to h2fs.
func (p *probeStore) book() *booking {
	if p.tr != nil {
		return nil
	}
	return &booking{d: counts{Calls: 1}, maintenance: p.maintenance.Load()}
}

// item accounts one billed request and, for reads, what came back.
func (b *booking) item(pr prim, key string, in, out int, err error) {
	if b == nil {
		return
	}
	if err != nil {
		b.errs++
	}
	b.d.Items[pr]++
	b.d.Class[classify(key)]++
	b.d.BytesIn += int64(in)
	b.d.BytesOut += int64(out)
	if b.maintenance {
		b.d.FlushReqs++
		b.d.FlushRead += int64(out)
		b.d.FlushWrite += int64(in)
		return
	}
	if pr != pGet {
		return
	}
	switch {
	case isRingKey(key):
		b.d.RingLoads++
	case classify(key) == classPatch:
		b.d.PatchProbes++
		if errors.Is(err, objstore.ErrNotFound) {
			b.d.ProbeMisses++
		}
	}
}

// decodePayload runs the public decoder matching a stored payload. It
// returns the tuples decoded and the matching encoder call; reencode is
// nil for opaque file content and for payloads that do not parse.
func decodePayload(key string, data []byte) (tuples int, reencode func()) {
	switch classify(key) {
	case classPatch:
		if pt, err := core.DecodePatch(key, data); err == nil {
			return pt.Ring.TotalLen(), func() { _ = pt.Encode() }
		}
	case classRing:
		if core.IsShardManifest(data) {
			if m, err := core.DecodeShardManifest(data); err == nil {
				return 0, func() { _ = core.EncodeShardManifest(m) }
			}
		} else if r, err := core.DecodeNameRing(data); err == nil {
			return r.TotalLen(), func() { _ = core.EncodeNameRing(r) }
		}
	default:
		if core.IsDirObject(data) {
			if d, err := core.DecodeDir(data); err == nil {
				return 0, func() { _ = core.EncodeDir(d) }
			}
		}
	}
	return 0, nil
}

// meter times the public codecs over one payload that crossed the
// boundary: decode for the GET direction, decode then re-encode for PUT.
func (p *probeStore) meter(key string, data []byte, written bool) {
	if !p.codec || len(data) == 0 {
		return
	}
	t0 := time.Now()
	tuples, reencode := decodePayload(key, data)
	t1 := time.Now()
	if reencode == nil {
		return
	}
	var enc time.Duration
	if written {
		reencode()
		enc = time.Since(t1)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.c.DecodeNs += int64(t1.Sub(t0))
	p.c.EncodeNs += int64(enc)
	p.c.CodecBytes += int64(len(data))
	p.c.CodecTuples += int64(tuples)
}

// done merges one finished call's booking into the tallies.
func (p *probeStore) done(c call, b *booking) {
	if b == nil {
		return
	}
	c.errs = b.errs
	p.mu.Lock()
	defer p.mu.Unlock()
	p.c = p.c.plus(b.d, 1)
	if p.rec != nil {
		*p.rec = append(*p.rec, c)
	}
}

// spanned runs fn inside a store span when tracing is on.
func (p *probeStore) spanned(ctx context.Context, name, key string, fn func() int64) {
	if p.tr == nil {
		fn()
		return
	}
	ref := p.tr.begin(refOf(ctx), "cluster", name, classNames[classify(key)])
	p.tr.end(ref, fn())
}

// Put implements objstore.Store.
func (p *probeStore) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	var err error
	p.spanned(ctx, "put", name, func() int64 {
		err = p.inner.Put(ctx, name, data, meta)
		return int64(len(data))
	})
	b := p.book()
	b.item(pPut, name, len(data), 0, err)
	p.done(call{prim: pPut, key: name, size: len(data), meta: meta}, b)
	p.meter(name, data, true)
	return err
}

// Get implements objstore.Store.
func (p *probeStore) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	var data []byte
	var info objstore.ObjectInfo
	var err error
	p.spanned(ctx, "get", name, func() int64 {
		data, info, err = p.inner.Get(ctx, name)
		return int64(len(data))
	})
	b := p.book()
	b.item(pGet, name, 0, len(data), err)
	p.done(call{prim: pGet, key: name}, b)
	p.meter(name, data, false)
	return data, info, err
}

// GetRange implements objstore.Store.
func (p *probeStore) GetRange(ctx context.Context, name string, offset, length int64) ([]byte, objstore.ObjectInfo, error) {
	var data []byte
	var info objstore.ObjectInfo
	var err error
	p.spanned(ctx, "getrange", name, func() int64 {
		data, info, err = p.inner.GetRange(ctx, name, offset, length)
		return int64(len(data))
	})
	b := p.book()
	b.item(pGet, name, 0, len(data), err)
	p.done(call{prim: pGet, rng: true, key: name}, b)
	return data, info, err
}

// Head implements objstore.Store.
func (p *probeStore) Head(ctx context.Context, name string) (objstore.ObjectInfo, error) {
	var info objstore.ObjectInfo
	var err error
	p.spanned(ctx, "head", name, func() int64 {
		info, err = p.inner.Head(ctx, name)
		return 0
	})
	b := p.book()
	b.item(pHead, name, 0, 0, err)
	p.done(call{prim: pHead, key: name}, b)
	return info, err
}

// Delete implements objstore.Store.
func (p *probeStore) Delete(ctx context.Context, name string) error {
	var err error
	p.spanned(ctx, "delete", name, func() int64 {
		err = p.inner.Delete(ctx, name)
		return 0
	})
	b := p.book()
	b.item(pDelete, name, 0, 0, err)
	p.done(call{prim: pDelete, key: name}, b)
	return err
}

// Copy implements objstore.Store.
func (p *probeStore) Copy(ctx context.Context, src, dst string) error {
	var err error
	p.spanned(ctx, "copy", dst, func() int64 {
		err = p.inner.Copy(ctx, src, dst)
		return 0
	})
	b := p.book()
	b.item(pCopy, dst, 0, 0, err)
	p.done(call{prim: pCopy, key: src, dst: dst}, b)
	return err
}

func firstOf(names []string) string {
	if len(names) == 0 {
		return ""
	}
	return names[0]
}

// MultiGet implements objstore.Batcher.
func (p *probeStore) MultiGet(ctx context.Context, names []string) []objstore.GetResult {
	var out []objstore.GetResult
	p.spanned(ctx, "multiget", firstOf(names), func() int64 {
		out = objstore.MultiGet(ctx, p.inner, names)
		var n int64
		for _, r := range out {
			n += int64(len(r.Data))
		}
		return n
	})
	b := p.book()
	for i, r := range out {
		b.item(pGet, names[i], 0, len(r.Data), r.Err)
	}
	p.done(call{prim: pGet, multi: true, keys: names}, b)
	for i, r := range out {
		p.meter(names[i], r.Data, false)
	}
	return out
}

// MultiHead implements objstore.Batcher.
func (p *probeStore) MultiHead(ctx context.Context, names []string) []objstore.HeadResult {
	var out []objstore.HeadResult
	p.spanned(ctx, "multihead", firstOf(names), func() int64 {
		out = objstore.MultiHead(ctx, p.inner, names)
		return 0
	})
	b := p.book()
	for i, r := range out {
		b.item(pHead, names[i], 0, 0, r.Err)
	}
	p.done(call{prim: pHead, multi: true, keys: names}, b)
	return out
}

// MultiPut implements objstore.Batcher.
func (p *probeStore) MultiPut(ctx context.Context, reqs []objstore.PutReq) []error {
	var out []error
	keys := make([]string, len(reqs))
	sizes := make([]int, len(reqs))
	var total int64
	for i, r := range reqs {
		keys[i], sizes[i] = r.Name, len(r.Data)
		total += int64(len(r.Data))
	}
	p.spanned(ctx, "multiput", firstOf(keys), func() int64 {
		out = objstore.MultiPut(ctx, p.inner, reqs)
		return total
	})
	b := p.book()
	for i := range reqs {
		b.item(pPut, keys[i], sizes[i], 0, out[i])
	}
	p.done(call{prim: pPut, multi: true, keys: keys, sizes: sizes}, b)
	for _, r := range reqs {
		p.meter(r.Name, r.Data, true)
	}
	return out
}

// MultiDelete implements objstore.Batcher.
func (p *probeStore) MultiDelete(ctx context.Context, names []string) []error {
	var out []error
	p.spanned(ctx, "multidelete", firstOf(names), func() int64 {
		out = objstore.MultiDelete(ctx, p.inner, names)
		return 0
	})
	b := p.book()
	for i := range names {
		b.item(pDelete, names[i], 0, 0, out[i])
	}
	p.done(call{prim: pDelete, multi: true, keys: names}, b)
	return out
}
