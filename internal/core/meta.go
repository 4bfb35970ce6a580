package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Object metadata. Besides its key and body, an object carries a few
// string fields that a HEAD returns without the body: what kind of object
// it is, a directory object's namespace, a chunked file's shape, and a
// NameRing's flush watermarks. Like the key scheme, the field names are
// an on-store format.
const (
	MetaType = "h2type" // the object's kind: one of the Type* values
	MetaNS   = "ns"     // a directory object's namespace

	TypeFile    = "file"
	TypeDir     = "dir"
	TypeRoot    = "root"
	TypeGCEntry = "gcq"

	metaChunks    = "h2slo"  // a chunked file's segment count
	metaSize      = "h2size" // a chunked file's logical size
	metaChunkSize = "chunk"  // a chunked file's segment size
	metaWatermark = "wm."    // prefix of a ring's per-node watermark fields

	chunkManifestMagic = "H2SLO/1\n" // manifest body, for human inspection
)

// ChunkManifest describes a chunked file, stored Swift-SLO style as
// segment objects (SegmentKey) plus a manifest at the file's ChildKey.
// The manifest's metadata carries the shape, so STAT, MOVE, COPY and
// DELETE never read a segment.
type ChunkManifest struct {
	Chunks    int   // segment count
	Size      int64 // logical file size
	ChunkSize int64 // bytes per segment; the last may be shorter
}

// Encode returns the manifest object's body and metadata.
func (c ChunkManifest) Encode() (body []byte, meta map[string]string) {
	body = []byte(fmt.Sprintf("%schunks=%d\nchunkSize=%d\nsize=%d\n", chunkManifestMagic, c.Chunks, c.ChunkSize, c.Size))
	return body, map[string]string{
		MetaType:      TypeFile,
		metaChunks:    strconv.Itoa(c.Chunks),
		metaSize:      strconv.FormatInt(c.Size, 10),
		metaChunkSize: strconv.FormatInt(c.ChunkSize, 10),
	}
}

// ParseChunkManifest reads a chunked file's shape from object metadata;
// ok is false for a plain object, which costs one map lookup.
func ParseChunkManifest(meta map[string]string) (c ChunkManifest, ok bool) {
	cs, ok := meta[metaChunks]
	if !ok {
		return ChunkManifest{}, false
	}
	chunks, err1 := strconv.Atoi(cs)
	size, err2 := strconv.ParseInt(meta[metaSize], 10, 64)
	if err1 != nil || err2 != nil || chunks < 0 {
		return ChunkManifest{}, false
	}
	c = ChunkManifest{Chunks: chunks, Size: size}
	if s, ok := meta[metaChunkSize]; ok {
		c.ChunkSize, _ = strconv.ParseInt(s, 10, 64)
	}
	return c, true
}

// Watermark is one node's merge watermark: the highest patch sequence of
// that node already folded into a stored ring.
type Watermark struct {
	Node, Seq int
}

// Watermarks is a ring's watermark set, one entry per node in ascending
// node order. The zero value is the empty set.
type Watermarks []Watermark

// find returns the index of node's entry, or where it would go.
func (w Watermarks) find(node int) (int, bool) {
	return slices.BinarySearchFunc(w, node, func(m Watermark, node int) int { return cmp.Compare(m.Node, node) })
}

// Get returns node's watermark, 0 if it has none.
func (w Watermarks) Get(node int) int {
	if i, ok := w.find(node); ok {
		return w[i].Seq
	}
	return 0
}

// Raise returns w with node's watermark at least seq; a node without one
// gets seq. A watermark is never lowered.
func (w Watermarks) Raise(node, seq int) Watermarks {
	i, ok := w.find(node)
	if !ok {
		return slices.Insert(w, i, Watermark{Node: node, Seq: seq})
	}
	w[i].Seq = max(w[i].Seq, seq)
	return w
}

// Set returns w with node's watermark exactly seq.
func (w Watermarks) Set(node, seq int) Watermarks {
	i, ok := w.find(node)
	if !ok {
		return slices.Insert(w, i, Watermark{Node: node, Seq: seq})
	}
	w[i].Seq = seq
	return w
}

// EncodeWatermarks renders per-node merge watermarks as ring object
// metadata, one "wm.<node>" field each.
func EncodeWatermarks(wm Watermarks) map[string]string {
	meta := make(map[string]string, len(wm))
	for _, w := range wm {
		meta[metaWatermark+strconv.Itoa(w.Node)] = strconv.Itoa(w.Seq)
	}
	return meta
}

// ParseWatermarks is EncodeWatermarks' inverse: it raises dst by every
// "wm.<node>" field of meta and returns it, so a caller that passes
// spare capacity parses without allocating. Fields that are not
// well-formed watermarks are ignored.
func ParseWatermarks(dst Watermarks, meta map[string]string) Watermarks {
	for k, v := range meta {
		rest, ok := strings.CutPrefix(k, metaWatermark)
		if !ok {
			continue
		}
		node, err1 := strconv.Atoi(rest)
		seq, err2 := strconv.Atoi(v)
		if err1 == nil && err2 == nil {
			dst = dst.Raise(node, seq)
		}
	}
	return dst
}
