package h2fs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"

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

const (
	metaChunks = "h2slo"     // chunk count, set on manifest objects
	metaSize   = "h2size"    // logical file size, set on manifest objects
	sloMagic   = "H2SLO/1\n" // manifest body, for human inspection
)

// sloSegKey names one segment of a chunked file. The "/slo/" infix
// contains '/', which no child name may, so segments can never collide
// with sibling files.
func sloSegKey(account, ns, name string, i int) string {
	return account + "|" + ns + "::/slo/" + name + "/" + fmt.Sprintf("%06d", i)
}

// manifestInfo extracts chunked-file metadata from object info; ok is
// false for plain objects.
func manifestInfo(info objstore.ObjectInfo) (chunks int, size int64, ok bool) {
	cs, have := info.Meta[metaChunks]
	if !have {
		return 0, 0, false
	}
	chunks, err1 := strconv.Atoi(cs)
	size, err2 := strconv.ParseInt(info.Meta[metaSize], 10, 64)
	if err1 != nil || err2 != nil || chunks < 0 {
		return 0, 0, false
	}
	return chunks, size, true
}

// WriteFileChunked streams r into chunkSize-byte segment objects plus a
// manifest. Per the blocking rule of §3.3.3, the parent NameRing patch is
// submitted only after the last byte is durably stored.
func (m *Middleware) WriteFileChunked(ctx context.Context, account, path string, r io.Reader, chunkSize int) error {
	if chunkSize <= 0 {
		chunkSize = 4 << 20
	}
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("h2fs: /: %w", fsapi.ErrIsDir)
	}
	dir, name, err := fsapi.Split(p)
	if err != nil {
		return err
	}
	parentNS, err := m.resolveDir(ctx, account, dir)
	if err != nil {
		return err
	}
	if t, ok, err := m.lookupChild(ctx, account, parentNS, name); err != nil {
		return err
	} else if ok && !t.Deleted {
		if t.Dir {
			return fmt.Errorf("h2fs: %s: %w", p, fsapi.ErrIsDir)
		}
		// Overwriting: reclaim the previous incarnation's segments first.
		if err := m.deleteFileObject(ctx, account, parentNS, name, t.Chunked); err != nil &&
			!errors.Is(err, objstore.ErrNotFound) {
			return err
		}
	}
	buf := make([]byte, chunkSize)
	chunks := 0
	var total int64
	for {
		n, rerr := io.ReadFull(r, buf)
		if n > 0 {
			key := sloSegKey(account, parentNS, name, chunks)
			if err := m.store.Put(ctx, key, buf[:n], nil); err != nil {
				return fmt.Errorf("h2fs: chunk %d: %w", chunks, err)
			}
			chunks++
			total += int64(n)
		}
		if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	meta := map[string]string{
		metaType:   typeFile,
		metaChunks: strconv.Itoa(chunks),
		metaSize:   strconv.FormatInt(total, 10),
		"chunk":    strconv.Itoa(chunkSize),
	}
	body := []byte(fmt.Sprintf("%schunks=%d\nchunkSize=%d\nsize=%d\n", sloMagic, chunks, chunkSize, total))
	if err := m.store.Put(ctx, core.ChildKey(account, parentNS, name), body, meta); err != nil {
		return fmt.Errorf("h2fs: manifest: %w", err)
	}
	return m.submitPatch(ctx, account, parentNS,
		core.Tuple{Name: name, Time: m.now(), Chunked: true})
}

// assembleChunked reads every segment of a chunked file with one
// multi-Get, charged as a single overlapped fanout window by batch-aware
// stores.
func (m *Middleware) assembleChunked(ctx context.Context, account, ns, name string, chunks int, size int64) ([]byte, error) {
	if chunks == 0 {
		return []byte{}, nil
	}
	names := make([]string, chunks)
	for i := range names {
		names[i] = sloSegKey(account, ns, name, i)
	}
	results := objstore.MultiGet(ctx, m.store, names)
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("h2fs: chunk %d: %w", i, r.Err)
		}
	}
	out := make([]byte, 0, size)
	for _, r := range results {
		out = append(out, r.Data...)
	}
	return out, nil
}

// readChunkedRange serves a byte range touching only the overlapped
// segments.
func (m *Middleware) readChunkedRange(ctx context.Context, account, ns, name string, chunkSize int64, size int64, offset, length int64) ([]byte, error) {
	if offset > size {
		offset = size
	}
	end := size
	if length >= 0 && offset+length < end {
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
		data, _, err := m.store.GetRange(ctx, sloSegKey(account, ns, name, int(i)), from, to-from)
		if err != nil {
			return nil, fmt.Errorf("h2fs: chunk %d: %w", i, err)
		}
		out = append(out, data...)
	}
	return out, nil
}

// deleteFileObject removes a file's object — and, when the NameRing tuple
// marked it chunked, every segment its manifest references. The chunked
// bit rides in the tuple so plain files pay no probing.
func (m *Middleware) deleteFileObject(ctx context.Context, account, ns, name string, chunked bool) error {
	key := core.ChildKey(account, ns, name)
	if chunked {
		info, err := m.store.Head(ctx, key)
		if err != nil {
			return err
		}
		if chunks, _, ok := manifestInfo(info); ok {
			segs := make([]string, chunks)
			for i := range segs {
				segs[i] = sloSegKey(account, ns, name, i)
			}
			for _, derr := range objstore.MultiDelete(ctx, m.store, segs) {
				if derr != nil && !errors.Is(derr, objstore.ErrNotFound) {
					return derr
				}
			}
		}
	}
	return m.store.Delete(ctx, key)
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
		if chunks, _, ok := manifestInfo(info); ok {
			for i := 0; i < chunks; i++ {
				if err := m.store.Copy(ctx,
					sloSegKey(account, srcNS, srcName, i),
					sloSegKey(account, dstNS, dstName, i)); err != nil {
					return err
				}
			}
		}
	}
	return m.store.Copy(ctx, srcKey, core.ChildKey(account, dstNS, dstName))
}
