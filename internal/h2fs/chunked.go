package h2fs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// Large-object support. The paper's workloads include gigabyte videos
// (§5.1); storing such a file as one object makes every overwrite and
// replica transfer monolithic. Following Swift's Static Large Objects, a
// chunked file is stored as N segment objects plus a small manifest at
// the file's namespace-decorated key. The manifest carries the chunk
// count and logical size in object metadata, so STAT, MOVE, COPY and
// DELETE handle chunked files without reading any content, and ranged
// reads touch only the segments they overlap.

// WriteFileChunked streams r into chunkSize-byte segment objects plus a
// manifest. Per the blocking rule of §3.3.3, the parent NameRing patch is
// submitted only after the last byte is durably stored.
func (m *Middleware) WriteFileChunked(ctx context.Context, account, path string, r io.Reader, chunkSize int) error {
	if chunkSize <= 0 {
		chunkSize = 4 << 20
	}
	to, live, err := m.target(ctx, account, path, fsapi.ErrIsDir)
	if err != nil {
		return err
	}
	if to.tuple.Dir {
		return fmt.Errorf("h2fs: %s: %w", to.path, fsapi.ErrIsDir)
	}
	parentNS, name := to.parentNS, to.tuple.Name
	// Overwriting a chunked file reclaims its segments first, because the
	// new ones take the same keys (DESIGN.md, "Write new, flip, reclaim").
	// A plain file's object is replaced by the manifest put.
	if live && to.tuple.Chunked {
		if err := m.deleteFileObject(ctx, account, parentNS, name, true); err != nil {
			return err
		}
	}
	var buf bytes.Buffer // sized by the bytes that arrive, not by chunkSize
	chunks := 0
	var total int64
	// Read chunk after chunk until one comes back short of chunkSize.
	for n := int64(chunkSize); n == int64(chunkSize); {
		buf.Reset()
		var err error
		if n, err = buf.ReadFrom(io.LimitReader(r, int64(chunkSize))); err != nil {
			return err
		}
		if n > 0 {
			key := core.SegmentKey(account, parentNS, name, chunks)
			if err := m.store.Put(ctx, key, buf.Bytes(), nil); err != nil {
				return fmt.Errorf("h2fs: chunk %d: %w", chunks, err)
			}
			chunks++
			total += n
		}
	}
	body, meta := core.ChunkManifest{Chunks: chunks, Size: total, ChunkSize: int64(chunkSize)}.Encode()
	if err := m.store.Put(ctx, core.ChildKey(account, parentNS, name), body, meta); err != nil {
		return fmt.Errorf("h2fs: manifest: %w", err)
	}
	return m.submitPatch(ctx, account, parentNS,
		core.Tuple{Name: name, Time: m.now(), Chunked: true})
}

// assembleChunked reads every segment of a chunked file with one
// multi-Get, charged as a single overlapped fanout window by batch-aware
// stores.
func (m *Middleware) assembleChunked(ctx context.Context, account, ns, name string, c core.ChunkManifest) ([]byte, error) {
	if c.Chunks == 0 {
		return []byte{}, nil
	}
	names := make([]string, c.Chunks)
	for i := range names {
		names[i] = core.SegmentKey(account, ns, name, i)
	}
	results := objstore.MultiGet(ctx, m.store, names)
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("h2fs: chunk %d: %w", i, r.Err)
		}
	}
	out := make([]byte, 0, c.Size)
	for _, r := range results {
		out = append(out, r.Data...)
	}
	return out, nil
}

// readChunkedRange serves a byte range touching only the overlapped
// segments.
func (m *Middleware) readChunkedRange(ctx context.Context, account, ns, name string, c core.ChunkManifest, offset, length int64) ([]byte, error) {
	size, chunkSize := c.Size, c.ChunkSize
	if offset > size {
		offset = size
	}
	end := size
	if length >= 0 && length < end-offset {
		end = offset + length
	}
	if chunkSize <= 0 || offset >= end {
		return []byte{}, nil
	}
	first := offset / chunkSize
	last := (end - 1) / chunkSize
	out := make([]byte, 0, end-offset)
	for i := first; i <= last; i++ {
		segStart := i * chunkSize
		from := max(offset-segStart, 0)
		to := min(end-segStart, chunkSize)
		data, _, err := m.store.GetRange(ctx, core.SegmentKey(account, ns, name, int(i)), from, to-from)
		if err != nil {
			return nil, fmt.Errorf("h2fs: chunk %d: %w", i, err)
		}
		out = append(out, data...)
	}
	return out, nil
}

// deleteFileObject removes a file's object — and, when the NameRing tuple
// marked it chunked, every segment its manifest references. The chunked
// bit rides in the tuple so plain files pay no probing. An object already
// gone is not an error.
func (m *Middleware) deleteFileObject(ctx context.Context, account, ns, name string, chunked bool) error {
	key := core.ChildKey(account, ns, name)
	if chunked {
		info, err := m.store.Head(ctx, key)
		if err != nil {
			return ignoreNotFound(err)
		}
		c, _ := core.ParseChunkManifest(info.Meta)
		if err := m.deleteSegments(ctx, account, ns, name, c.Chunks); err != nil {
			return err
		}
	}
	return ignoreNotFound(m.store.Delete(ctx, key))
}

// deleteSegments removes a chunked file's first chunks segment objects.
// A segment already gone is not an error.
func (m *Middleware) deleteSegments(ctx context.Context, account, ns, name string, chunks int) error {
	if chunks == 0 {
		return nil
	}
	segs := make([]string, chunks)
	for i := range segs {
		segs[i] = core.SegmentKey(account, ns, name, i)
	}
	return m.deleteAll(ctx, segs)
}

// reclaimed passes on the error of a delete that ran after the flip made
// its object unreachable, and counts it in reclaim.errors: no tuple names
// the bytes it left behind, so the counter is where they show.
func (m *Middleware) reclaimed(err error) error {
	if err != nil {
		m.reg.Inc("reclaim.errors", 1)
	}
	return err
}

// copyFileObject duplicates a file object under a new namespace/name,
// segment by segment for chunked files, using server-side copies.
func (m *Middleware) copyFileObject(ctx context.Context, account, srcNS, srcName, dstNS, dstName string, chunked bool) error {
	srcKey := core.ChildKey(account, srcNS, srcName)
	if chunked {
		info, err := m.store.Head(ctx, srcKey)
		if err != nil {
			return err
		}
		if c, ok := core.ParseChunkManifest(info.Meta); ok {
			for i := 0; i < c.Chunks; i++ {
				if err := m.store.Copy(ctx,
					core.SegmentKey(account, srcNS, srcName, i),
					core.SegmentKey(account, dstNS, dstName, i)); err != nil {
					return err
				}
			}
		}
	}
	return m.store.Copy(ctx, srcKey, core.ChildKey(account, dstNS, dstName))
}

// ignoreNotFound maps a missing object to success: reclaiming what is
// already gone is done.
func ignoreNotFound(err error) error {
	if errors.Is(err, objstore.ErrNotFound) {
		return nil
	}
	return err
}

// deleteAll deletes keys in one MultiDelete and returns the first error
// that is not a missing object.
func (m *Middleware) deleteAll(ctx context.Context, keys []string) error {
	for _, err := range objstore.MultiDelete(ctx, m.store, keys) {
		if err = ignoreNotFound(err); err != nil {
			return err
		}
	}
	return nil
}
