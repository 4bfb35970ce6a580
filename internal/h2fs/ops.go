package h2fs

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

const (
	metaType = "h2type"
	typeFile = "file"
	typeDir  = "dir"
)

// Mkdir creates an empty directory: a fresh namespace UUID, its directory
// object, an empty NameRing object, and a creation patch to the parent's
// NameRing. All pieces are ordinary objects on the single consistent
// hashing ring (§3.1).
func (m *Middleware) Mkdir(ctx context.Context, account, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("h2fs: /: %w", fsapi.ErrExists)
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
		return fmt.Errorf("h2fs: %s: %w", p, fsapi.ErrExists)
	}
	now := m.now()
	ns := m.gen.Next()
	dirObj := core.EncodeDir(core.DirObject{NS: ns, Name: name, Created: now})
	if err := m.store.Put(ctx, core.ChildKey(account, parentNS, name), dirObj,
		map[string]string{metaType: typeDir, "ns": ns}); err != nil {
		return fmt.Errorf("h2fs: mkdir %s: %w", p, err)
	}
	if err := m.store.Put(ctx, core.RingKey(account, ns),
		core.EncodeNameRing(core.NewNameRing()), nil); err != nil {
		return fmt.Errorf("h2fs: mkdir %s ring: %w", p, err)
	}
	return m.submitPatch(ctx, account, parentNS,
		core.Tuple{Name: name, Time: now, Dir: true, NS: ns})
}

// WriteFile creates or replaces a file: the content object is put at the
// namespace-decorated key, then a patch records the child in the parent's
// NameRing. Per the blocking rule of §3.3.3, patch submission happens only
// after the content write completes.
func (m *Middleware) WriteFile(ctx context.Context, account, path string, data []byte) error {
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
		// Overwriting a chunked file must reclaim its segments, or they
		// leak once the manifest is replaced.
		if t.Chunked {
			if err := m.deleteFileObject(ctx, account, parentNS, name, true); err != nil &&
				!errors.Is(err, objstore.ErrNotFound) {
				return err
			}
		}
	}
	if err := m.store.Put(ctx, core.ChildKey(account, parentNS, name), data,
		map[string]string{metaType: typeFile}); err != nil {
		return fmt.Errorf("h2fs: write %s: %w", p, err)
	}
	return m.submitPatch(ctx, account, parentNS, core.Tuple{Name: name, Time: m.now()})
}

// ReadFile returns a file's content via the regular O(d) access method.
func (m *Middleware) ReadFile(ctx context.Context, account, path string) ([]byte, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p == "/" {
		return nil, fmt.Errorf("h2fs: /: %w", fsapi.ErrIsDir)
	}
	res, _, err := m.resolve(ctx, account, p)
	if err != nil {
		return nil, err
	}
	if res.tuple.Dir {
		return nil, fmt.Errorf("h2fs: %s: %w", p, fsapi.ErrIsDir)
	}
	data, info, err := m.store.Get(ctx, core.ChildKey(account, res.parentNS, res.tuple.Name))
	if err != nil {
		return nil, readErr(p, err)
	}
	if res.tuple.Chunked {
		if chunks, size, ok := manifestInfo(info); ok {
			return m.assembleChunked(ctx, account, res.parentNS, res.tuple.Name, chunks, size)
		}
	}
	return data, nil
}

// ReadFileRange returns length bytes of a file starting at offset
// (length < 0 means to the end). Only the requested bytes travel from
// the cloud — how clients stream the paper's gigabyte videos without
// whole-object reads.
func (m *Middleware) ReadFileRange(ctx context.Context, account, path string, offset, length int64) ([]byte, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p == "/" {
		return nil, fmt.Errorf("h2fs: /: %w", fsapi.ErrIsDir)
	}
	if offset < 0 {
		return nil, fmt.Errorf("h2fs: negative offset: %w", fsapi.ErrInvalidPath)
	}
	res, _, err := m.resolve(ctx, account, p)
	if err != nil {
		return nil, err
	}
	if res.tuple.Dir {
		return nil, fmt.Errorf("h2fs: %s: %w", p, fsapi.ErrIsDir)
	}
	key := core.ChildKey(account, res.parentNS, res.tuple.Name)
	if res.tuple.Chunked {
		info, err := m.store.Head(ctx, key)
		if err != nil {
			return nil, readErr(p, err)
		}
		if _, size, ok := manifestInfo(info); ok {
			chunkSize, _ := strconv.ParseInt(info.Meta["chunk"], 10, 64)
			return m.readChunkedRange(ctx, account, res.parentNS, res.tuple.Name, chunkSize, size, offset, length)
		}
	}
	data, _, err := m.store.GetRange(ctx, key, offset, length)
	if err != nil {
		return nil, readErr(p, err)
	}
	return data, nil
}

// readErr maps a store read failure to the caller-visible error: a
// missing object means the file is gone (fsapi.ErrNotFound), but
// transient cloud faults keep their identity so HTTP layers and clients
// can distinguish "gone" from "retry later".
func readErr(p string, err error) error {
	if objstore.Transient(err) {
		return fmt.Errorf("h2fs: read %s: %w", p, err)
	}
	return fmt.Errorf("h2fs: read %s: %w", p, fsapi.ErrNotFound)
}

// Stat resolves a path to its metadata — the paper's "file access"
// operation (lookup only; Figure 13 measures exactly this walk).
func (m *Middleware) Stat(ctx context.Context, account, path string) (fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	if p == "/" {
		if !m.AccountExists(ctx, account) {
			return fsapi.EntryInfo{}, fmt.Errorf("h2fs: account %q: %w", account, fsapi.ErrNotFound)
		}
		return fsapi.EntryInfo{Name: "/", IsDir: true}, nil
	}
	res, _, err := m.resolve(ctx, account, p)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	info := fsapi.EntryInfo{
		Name:    res.tuple.Name,
		IsDir:   res.tuple.Dir,
		ModTime: time.Unix(0, res.tuple.Time),
	}
	if !res.tuple.Dir {
		if oi, err := m.store.Head(ctx, core.ChildKey(account, res.parentNS, res.tuple.Name)); err == nil {
			info.Size = oi.Size
			if _, size, ok := manifestInfo(oi); ok {
				info.Size = size // logical size of a chunked file
			}
		}
	}
	return info, nil
}

// Remove deletes a single file: the content object is removed and a
// fake-deletion tombstone is patched into the parent's NameRing (§3.3.3).
func (m *Middleware) Remove(ctx context.Context, account, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("h2fs: /: %w", fsapi.ErrIsDir)
	}
	res, _, err := m.resolve(ctx, account, p)
	if err != nil {
		return err
	}
	if res.tuple.Dir {
		return fmt.Errorf("h2fs: %s: %w", p, fsapi.ErrIsDir)
	}
	if err := m.deleteFileObject(ctx, account, res.parentNS, res.tuple.Name, res.tuple.Chunked); err != nil &&
		!errors.Is(err, objstore.ErrNotFound) {
		return err
	}
	return m.submitPatch(ctx, account, res.parentNS,
		core.Tuple{Name: res.tuple.Name, Time: m.now(), Deleted: true})
}

// Rmdir removes a directory subtree in O(1) NameRing work: one fake-
// deletion tombstone in the parent's ring makes the whole subtree
// unreachable (Figure 8's flat curve). The objects underneath are
// reclaimed out-of-band — synchronously here when EagerGC is set, charged
// to a garbage-collection context rather than the caller's operation.
func (m *Middleware) Rmdir(ctx context.Context, account, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("h2fs: cannot remove /: %w", fsapi.ErrInvalidPath)
	}
	res, _, err := m.resolve(ctx, account, p)
	if err != nil {
		return err
	}
	if !res.tuple.Dir {
		return fmt.Errorf("h2fs: %s: %w", p, fsapi.ErrNotDir)
	}
	// With the GC queue, a durable reclamation intent precedes the
	// tombstone. The order matters for crash safety: an intent without a
	// tombstone is validated against the still-live parent tuple at drain
	// time and dropped, while a tombstone without an intent would strand
	// the subtree forever. The enqueue context drops the caller's
	// cancellation (but keeps its virtual clock): once we commit to the
	// tombstone, the intent must land regardless of what the caller does.
	var seq int
	if m.gcq {
		//h2vet:durable GC intent enqueue: the tombstone commits, so the intent must land
		qctx := context.WithoutCancel(ctx)
		var qerr error
		seq, qerr = m.enqueueGC(qctx, account, res.tuple.NS, res.parentNS, res.tuple.Name, false)
		if qerr != nil {
			return fmt.Errorf("h2fs: rmdir %s: %w", p, qerr)
		}
		// Until this operation returns, the intent sits in its in-flight
		// window: a concurrent drain must not validate it against a parent
		// tuple the tombstone below has not yet replaced.
		defer m.gcSettle(account, seq)
	}
	if err := m.submitPatch(ctx, account, res.parentNS, core.Tuple{
		Name: res.tuple.Name, Time: m.now(), Deleted: true, Dir: true, NS: res.tuple.NS,
	}); err != nil {
		return err
	}
	if m.eagerGC {
		//h2vet:durable eager GC bracket: reclamation after a committed tombstone must finish
		gcCtx := context.WithoutCancel(ctx)
		gcCtx = vclock.With(gcCtx, nil) // do not bill GC to the caller
		if err := m.gcNamespace(gcCtx, account, res.tuple.NS,
			core.ChildKey(account, res.parentNS, res.tuple.Name)); err != nil {
			// The queued intent (if any) survives; the maintenance drain
			// resumes the walk where this one failed.
			return err
		}
		if m.gcq {
			m.dequeueGC(gcCtx, account, seq)
		}
	}
	return nil
}

// Move relocates a file or directory subtree. For directories this is the
// paper's O(1) headline (Figure 7): the subtree's objects are keyed by the
// directory's own namespace, which does not change, so only the entry
// object and two parent NameRings are touched no matter how many files the
// directory holds. RENAME is the same operation within one parent.
func (m *Middleware) Move(ctx context.Context, account, src, dst string) error {
	srcP, dstP, err := cleanSrcDst(src, dst)
	if err != nil {
		return err
	}
	res, _, err := m.resolve(ctx, account, srcP)
	if err != nil {
		return err
	}
	dstDir, dstName, err := fsapi.Split(dstP)
	if err != nil {
		return err
	}
	dstParentNS, err := m.resolveDir(ctx, account, dstDir)
	if err != nil {
		return err
	}
	if t, ok, err := m.lookupChild(ctx, account, dstParentNS, dstName); err != nil {
		return err
	} else if ok && !t.Deleted {
		return fmt.Errorf("h2fs: %s: %w", dstP, fsapi.ErrExists)
	}
	now := m.now()
	oldKey := core.ChildKey(account, res.parentNS, res.tuple.Name)
	newKey := core.ChildKey(account, dstParentNS, dstName)
	if res.tuple.Dir {
		// Rewrite the directory object under its new name; the namespace —
		// and with it every object inside the subtree — stays put.
		dirObj := core.EncodeDir(core.DirObject{NS: res.tuple.NS, Name: dstName, Created: now})
		if err := m.store.Put(ctx, newKey, dirObj,
			map[string]string{metaType: typeDir, "ns": res.tuple.NS}); err != nil {
			return err
		}
		if err := m.store.Delete(ctx, oldKey); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
	} else {
		if err := m.copyFileObject(ctx, account, res.parentNS, res.tuple.Name, dstParentNS, dstName, res.tuple.Chunked); err != nil {
			return err
		}
		if err := m.deleteFileObject(ctx, account, res.parentNS, res.tuple.Name, res.tuple.Chunked); err != nil &&
			!errors.Is(err, objstore.ErrNotFound) {
			return err
		}
	}
	if err := m.submitPatch(ctx, account, dstParentNS, core.Tuple{
		Name: dstName, Time: now, Dir: res.tuple.Dir, Chunked: res.tuple.Chunked, NS: res.tuple.NS,
	}); err != nil {
		return err
	}
	// The tombstone carries no namespace: the subtree lives on under its
	// new parent, and subtree GC descends into whatever NS a tuple names.
	return m.submitPatch(ctx, account, res.parentNS, core.Tuple{
		Name: res.tuple.Name, Time: now, Deleted: true, Dir: res.tuple.Dir,
	})
}

// Copy duplicates a file or directory subtree. Unlike MOVE, every file's
// content must be duplicated under the destination's namespaces, so COPY
// is O(n) (Figure 11); the copies are made with the cloud's server-side
// copy primitive so no content flows through the middleware.
func (m *Middleware) Copy(ctx context.Context, account, src, dst string) error {
	srcP, dstP, err := cleanSrcDst(src, dst)
	if err != nil {
		return err
	}
	res, _, err := m.resolve(ctx, account, srcP)
	if err != nil {
		return err
	}
	dstDir, dstName, err := fsapi.Split(dstP)
	if err != nil {
		return err
	}
	dstParentNS, err := m.resolveDir(ctx, account, dstDir)
	if err != nil {
		return err
	}
	if t, ok, err := m.lookupChild(ctx, account, dstParentNS, dstName); err != nil {
		return err
	} else if ok && !t.Deleted {
		return fmt.Errorf("h2fs: %s: %w", dstP, fsapi.ErrExists)
	}
	now := m.now()
	if !res.tuple.Dir {
		if err := m.copyFileObject(ctx, account, res.parentNS, res.tuple.Name, dstParentNS, dstName, res.tuple.Chunked); err != nil {
			return err
		}
		return m.submitPatch(ctx, account, dstParentNS, core.Tuple{Name: dstName, Time: now, Chunked: res.tuple.Chunked})
	}
	newNS := m.gen.Next()
	dirObj := core.EncodeDir(core.DirObject{NS: newNS, Name: dstName, Created: now})
	if err := m.store.Put(ctx, core.ChildKey(account, dstParentNS, dstName), dirObj,
		map[string]string{metaType: typeDir, "ns": newNS}); err != nil {
		return err
	}
	if err := m.copyTree(ctx, account, res.tuple.NS, newNS); err != nil {
		return err
	}
	return m.submitPatch(ctx, account, dstParentNS, core.Tuple{
		Name: dstName, Time: now, Dir: true, NS: newNS,
	})
}

// List returns a directory's direct children. The name-only form costs a
// single NameRing consult — the O(1) LIST of Table 1; the detailed form
// additionally touches each child object (O(m)), fanned out over the
// middleware's outbound concurrency.
func (m *Middleware) List(ctx context.Context, account, path string, detail bool) ([]fsapi.EntryInfo, error) {
	entries, _, err := m.ListPage(ctx, account, path, detail, "", 0)
	return entries, err
}

// ListPage is List with Swift-style pagination: entries strictly after
// marker (by name), at most limit of them (0 means unlimited). The
// returned next marker is non-empty when more entries follow; pass it to
// the next call. Huge directories — the paper's workloads reach half a
// million files in one (§5.1) — are listed in bounded chunks this way.
func (m *Middleware) ListPage(ctx context.Context, account, path string, detail bool, marker string, limit int) ([]fsapi.EntryInfo, string, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, "", err
	}
	var ns string
	if p == "/" {
		if ns, err = m.rootNS(ctx, account); err != nil {
			return nil, "", err
		}
	} else {
		res, _, rerr := m.resolve(ctx, account, p)
		if rerr != nil {
			return nil, "", rerr
		}
		if !res.tuple.Dir {
			return nil, "", fmt.Errorf("h2fs: %s: %w", p, fsapi.ErrNotDir)
		}
		ns = res.tuple.NS
	}
	// The page is cut out of the ring's name order under the descriptor
	// monitor: binary search to the marker, stop at the limit. It costs its
	// own length, not the directory's.
	var entries []fsapi.EntryInfo
	next := ""
	err = m.withRing(ctx, account, ns, func(r *core.NameRing) error {
		n := r.TotalLen()
		if limit > 0 && limit < n {
			n = limit
		}
		entries = make([]fsapi.EntryInfo, 0, n)
		r.Range(marker, func(t core.Tuple) bool {
			if t.Deleted {
				return true
			}
			if limit > 0 && len(entries) == limit {
				// A limit+1-th live entry proves that more follow.
				next = entries[limit-1].Name
				return false
			}
			entries = append(entries, fsapi.EntryInfo{Name: t.Name, IsDir: t.Dir, ModTime: time.Unix(0, t.Time)})
			return true
		})
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	if !detail {
		return entries, next, nil
	}
	// The page's child keys are cut from one string: two allocations, not
	// one per child. That is safe only while nothing below retains a key
	// past the call that receives it — a retained 40-byte key would pin the
	// whole page's string. Stores, batchers and store middleware must copy
	// a name they want to keep.
	prefix := core.ChildKey(account, ns, "")
	size := len(entries) * len(prefix)
	for i := range entries {
		size += len(entries[i].Name)
	}
	var sb strings.Builder
	sb.Grow(size)
	for i := range entries {
		sb.WriteString(prefix)
		sb.WriteString(entries[i].Name)
	}
	all := sb.String()
	keys := make([]string, len(entries))
	for i := range entries {
		n := len(prefix) + len(entries[i].Name)
		keys[i], all = all[:n], all[n:]
	}
	// One multi-Head covers the whole page: a native Batcher charges the
	// overlapped fanout window, exactly what the per-child vclock.Fanout
	// used to cost. A child deleted mid-list is simply reported sizeless.
	for i, r := range objstore.MultiHead(ctx, m.store, keys) {
		if r.Err != nil || entries[i].IsDir {
			continue
		}
		entries[i].Size = r.Info.Size
		if _, size, ok := manifestInfo(r.Info); ok {
			entries[i].Size = size
		}
	}
	return entries, next, nil
}

// cleanSrcDst validates a src/dst pair shared by Move and Copy.
func cleanSrcDst(src, dst string) (string, string, error) {
	srcP, err := fsapi.Clean(src)
	if err != nil {
		return "", "", err
	}
	dstP, err := fsapi.Clean(dst)
	if err != nil {
		return "", "", err
	}
	if srcP == "/" {
		return "", "", fmt.Errorf("h2fs: cannot move or copy /: %w", fsapi.ErrInvalidPath)
	}
	if fsapi.IsAncestor(srcP, dstP) {
		return "", "", fmt.Errorf("h2fs: %s is inside %s: %w", dstP, srcP, fsapi.ErrInvalidPath)
	}
	return srcP, dstP, nil
}
