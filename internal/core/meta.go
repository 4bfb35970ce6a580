package core

import (
	"fmt"
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

// EncodeWatermarks renders per-node merge watermarks (node -> highest
// patch sequence folded into the stored ring) as ring object metadata,
// one "wm.<node>" field each.
func EncodeWatermarks(wm map[int]int) map[string]string {
	meta := make(map[string]string, len(wm))
	for node, seq := range wm {
		meta[metaWatermark+strconv.Itoa(node)] = strconv.Itoa(seq)
	}
	return meta
}

// ParseWatermarks is EncodeWatermarks' inverse; fields that are not
// well-formed watermarks are ignored.
func ParseWatermarks(meta map[string]string) map[int]int {
	wm := map[int]int{}
	for k, v := range meta {
		rest, ok := strings.CutPrefix(k, metaWatermark)
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
