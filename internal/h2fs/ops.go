package h2fs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// Mkdir creates an empty directory: a fresh namespace UUID, its directory
// object, an empty NameRing object born loaded, and a creation patch to the
// parent's NameRing. All pieces are ordinary objects on the single
// consistent hashing ring (§3.1).
func (m *Middleware) Mkdir(ctx context.Context, account, path string) error {
	to, live, err := m.target(ctx, account, path, fsapi.ErrExists)
	if err != nil {
		return err
	}
	if live {
		return fmt.Errorf("h2fs: %s: %w", to.path, fsapi.ErrExists)
	}
	now := m.now()
	ns := m.gen.Next()
	if err := m.putDirObject(ctx, account, to.parentNS, to.tuple.Name, ns, now); err != nil {
		return fmt.Errorf("h2fs: mkdir %s: %w", to.path, err)
	}
	if err := m.born(ctx, account, ns, core.NewNameRing()); err != nil {
		return fmt.Errorf("h2fs: mkdir %s ring: %w", to.path, err)
	}
	return m.submitPatch(ctx, account, to.parentNS,
		core.Tuple{Name: to.tuple.Name, Time: now, Dir: true, NS: ns})
}

// WriteFile creates or replaces a file: the content object is put at the
// namespace-decorated key, then a patch records the child in the parent's
// NameRing. Per the blocking rule of §3.3.3, patch submission happens only
// after the content write completes.
func (m *Middleware) WriteFile(ctx context.Context, account, path string, data []byte) error {
	to, _, err := m.target(ctx, account, path, fsapi.ErrIsDir)
	if err != nil {
		return err
	}
	if to.tuple.Dir {
		return fmt.Errorf("h2fs: %s: %w", to.path, fsapi.ErrIsDir)
	}
	// Overwriting a chunked file leaves its segments to reclaim once the
	// new content and its tuple are in place: the put replaces the
	// manifest at the same key, and a failure before the flip leaves the
	// old file whole.
	key := core.ChildKey(account, to.parentNS, to.tuple.Name)
	var old core.ChunkManifest
	if to.tuple.Chunked {
		info, err := m.store.Head(ctx, key)
		if err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
		old, _ = core.ParseChunkManifest(info.Meta)
	}
	if err := m.store.Put(ctx, key, data, map[string]string{core.MetaType: core.TypeFile}); err != nil {
		return fmt.Errorf("h2fs: write %s: %w", to.path, err)
	}
	if err := m.submitPatch(ctx, account, to.parentNS, core.Tuple{Name: to.tuple.Name, Time: m.now()}); err != nil {
		return err
	}
	return m.reclaimed(m.deleteSegments(ctx, account, to.parentNS, to.tuple.Name, old.Chunks))
}

// ReadFile returns a file's content via the regular O(d) access method.
func (m *Middleware) ReadFile(ctx context.Context, account, path string) ([]byte, error) {
	res, err := m.file(ctx, account, path)
	if err != nil {
		return nil, err
	}
	data, info, err := m.store.Get(ctx, core.ChildKey(account, res.parentNS, res.tuple.Name))
	if err != nil {
		return nil, readErr(res.path, err)
	}
	if res.tuple.Chunked {
		if c, ok := core.ParseChunkManifest(info.Meta); ok {
			return m.assembleChunked(ctx, account, res.parentNS, res.tuple.Name, c)
		}
	}
	return data, nil
}

// ReadFileRange returns length bytes of a file starting at offset
// (length < 0 means to the end). Only the requested bytes travel from
// the cloud — how clients stream the paper's gigabyte videos without
// whole-object reads.
func (m *Middleware) ReadFileRange(ctx context.Context, account, path string, offset, length int64) ([]byte, error) {
	// A negative offset loses only to what file refuses before it
	// resolves anything: a malformed path and the root.
	if offset < 0 {
		if p, err := fsapi.Clean(path); err == nil && p != "/" {
			return nil, fmt.Errorf("h2fs: negative offset: %w", fsapi.ErrInvalidPath)
		}
	}
	res, err := m.file(ctx, account, path)
	if err != nil {
		return nil, err
	}
	key := core.ChildKey(account, res.parentNS, res.tuple.Name)
	if res.tuple.Chunked {
		info, err := m.store.Head(ctx, key)
		if err != nil {
			return nil, readErr(res.path, err)
		}
		if c, ok := core.ParseChunkManifest(info.Meta); ok {
			return m.readChunkedRange(ctx, account, res.parentNS, res.tuple.Name, c, offset, length)
		}
	}
	data, _, err := m.store.GetRange(ctx, key, offset, length)
	if err != nil {
		return nil, readErr(res.path, err)
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
		switch exists, err := m.AccountExists(ctx, account); {
		case err != nil:
			return fsapi.EntryInfo{}, err
		case !exists:
			return fsapi.EntryInfo{}, fmt.Errorf("h2fs: account %q: %w", account, fsapi.ErrNotFound)
		}
		return fsapi.EntryInfo{Name: "/", IsDir: true}, nil
	}
	res, err := m.resolve(ctx, account, p)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	info := fsapi.EntryInfo{
		Name:    res.tuple.Name,
		IsDir:   res.tuple.Dir,
		ModTime: time.Unix(0, res.tuple.Time),
	}
	if !res.tuple.Dir {
		// A missing content object reads as size 0, any other failure fails.
		switch oi, err := m.store.Head(ctx, core.ChildKey(account, res.parentNS, res.tuple.Name)); {
		case err == nil:
			info.Size = oi.Size
			if c, ok := core.ParseChunkManifest(oi.Meta); ok {
				info.Size = c.Size // logical size of a chunked file
			}
		case !errors.Is(err, objstore.ErrNotFound):
			return fsapi.EntryInfo{}, fmt.Errorf("h2fs: stat %s: %w", res.path, err)
		}
	}
	return info, nil
}

// Remove deletes a single file: a fake-deletion tombstone is patched into
// the parent's NameRing (§3.3.3), and only then is the content reclaimed,
// so a crash leaves unreferenced bytes, never a listed name without them.
func (m *Middleware) Remove(ctx context.Context, account, path string) error {
	res, err := m.file(ctx, account, path)
	if err != nil {
		return err
	}
	if err := m.submitPatch(ctx, account, res.parentNS,
		core.Tuple{Name: res.tuple.Name, Time: m.now(), Deleted: true}); err != nil {
		return err
	}
	return m.reclaimed(m.deleteFileObject(ctx, account, res.parentNS, res.tuple.Name, res.tuple.Chunked))
}

// Rmdir removes a directory subtree in O(1) NameRing work: one fake-
// deletion tombstone in the parent's ring makes the whole subtree
// unreachable (Figure 8's flat curve). The objects underneath are
// reclaimed out-of-band (gcqueue.go) — synchronously here when EagerGC
// is set, charged to a garbage-collection context rather than the
// caller's operation.
func (m *Middleware) Rmdir(ctx context.Context, account, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("h2fs: cannot remove /: %w", fsapi.ErrInvalidPath)
	}
	res, err := m.resolve(ctx, account, p)
	if err != nil {
		return err
	}
	if !res.tuple.Dir {
		return fmt.Errorf("h2fs: %s: %w", p, fsapi.ErrNotDir)
	}
	// The intent precedes the tombstone. The order matters for crash
	// safety: an intent without a tombstone is validated against the
	// still-live parent tuple at drain time and dropped, while a tombstone
	// without an intent would strand the subtree forever.
	e := core.GCEntry{Account: account, NS: res.tuple.NS, ParentNS: res.parentNS, Name: res.tuple.Name}
	seq, err := m.enqueueGC(ctx, e)
	if err != nil {
		return fmt.Errorf("h2fs: rmdir %s: %w", p, err)
	}
	// Until this operation returns, the intent sits in its in-flight
	// window: a concurrent drain must not validate it against a parent
	// tuple the tombstone below has not yet replaced.
	defer m.gcSettle(account, seq)
	if err := m.submitPatch(ctx, account, res.parentNS, core.Tuple{
		Name: res.tuple.Name, Time: m.now(), Deleted: true, Dir: true, NS: res.tuple.NS,
	}); err != nil {
		return err
	}
	return m.reclaimNow(ctx, e, seq)
}

// Move relocates a file or directory subtree. For directories this is the
// paper's O(1) headline (Figure 7): the subtree's objects are keyed by the
// directory's own namespace, which does not change, so only the entry
// object and two parent NameRings are touched no matter how many files the
// directory holds. RENAME is the same operation within one parent, where
// both tuples go in one patch: no crash lists the entry under both names.
// As in Remove, the old entry or file object is reclaimed after the flip.
func (m *Middleware) Move(ctx context.Context, account, src, dst string) error {
	res, to, err := m.movePair(ctx, account, src, dst)
	if err != nil {
		return err
	}
	dstParentNS, dstName := to.parentNS, to.tuple.Name
	now := m.now()
	if res.tuple.Dir {
		// Rewrite the directory object under its new name; the namespace —
		// and with it every object inside the subtree — stays put.
		err = m.putDirObject(ctx, account, dstParentNS, dstName, res.tuple.NS, now)
	} else {
		err = m.copyFileObject(ctx, account, res.parentNS, res.tuple.Name, dstParentNS, dstName, res.tuple.Chunked)
	}
	if err != nil {
		return err
	}
	live := core.Tuple{Name: dstName, Time: now, Dir: res.tuple.Dir, Chunked: res.tuple.Chunked, NS: res.tuple.NS}
	// The tombstone carries no namespace: the subtree lives on under its
	// new parent, and subtree GC descends into whatever NS a tuple names.
	tomb := core.Tuple{Name: res.tuple.Name, Time: now, Deleted: true, Dir: res.tuple.Dir}
	if dstParentNS == res.parentNS {
		err = m.submitPatch(ctx, account, dstParentNS, live, tomb)
	} else if err = m.submitPatch(ctx, account, dstParentNS, live); err == nil {
		err = m.submitPatch(ctx, account, res.parentNS, tomb)
	}
	if err != nil {
		return err
	}
	return m.reclaimed(m.deleteFileObject(ctx, account, res.parentNS, res.tuple.Name, res.tuple.Chunked))
}

// Copy duplicates a file or directory subtree. Unlike MOVE, every file's
// content must be duplicated under the destination's namespaces, so COPY
// is O(n) (Figure 11); the copies are made with the cloud's server-side
// copy primitive so no content flows through the middleware.
func (m *Middleware) Copy(ctx context.Context, account, src, dst string) error {
	res, to, err := m.movePair(ctx, account, src, dst)
	if err != nil {
		return err
	}
	dstParentNS, dstName := to.parentNS, to.tuple.Name
	now := m.now()
	if !res.tuple.Dir {
		if err := m.copyFileObject(ctx, account, res.parentNS, res.tuple.Name, dstParentNS, dstName, res.tuple.Chunked); err != nil {
			return err
		}
		return m.submitPatch(ctx, account, dstParentNS, core.Tuple{Name: dstName, Time: now, Chunked: res.tuple.Chunked})
	}
	newNS := m.gen.Next()
	if err := m.putDirObject(ctx, account, dstParentNS, dstName, newNS, now); err != nil {
		return err
	}
	if err := m.copyTree(ctx, account, res.tuple.NS, newNS); err != nil {
		return err
	}
	return m.submitPatch(ctx, account, dstParentNS, core.Tuple{
		Name: dstName, Time: now, Dir: true, NS: newNS,
	})
}

// movePair resolves the source of a MOVE or COPY and the destination it
// must not find taken.
func (m *Middleware) movePair(ctx context.Context, account, src, dst string) (from, to resolved, err error) {
	srcP, dstP, err := fsapi.CleanMovePair(src, dst)
	if err != nil {
		return from, to, err
	}
	if from, err = m.resolve(ctx, account, srcP); err != nil {
		return from, to, err
	}
	to, live, err := m.target(ctx, account, dstP, nil)
	if err == nil && live {
		err = fmt.Errorf("h2fs: %s: %w", dstP, fsapi.ErrExists)
	}
	return from, to, err
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
	ns, err := m.ResolveNS(ctx, account, path)
	if err != nil {
		return nil, "", err
	}
	// The page is cut out of the ring's name order under the descriptor
	// monitor: binary search to the marker, stop at the limit. It costs its
	// own length, not the directory's.
	var entries []fsapi.EntryInfo
	next := ""
	err = m.withRing(ctx, account, ns, func(r *core.NameRing) {
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
	// overlapped fanout window over profile.Fanout workers. As in Stat, a
	// child deleted mid-list is reported sizeless; any other failed HEAD
	// fails the page.
	for i, r := range objstore.MultiHead(ctx, m.store, keys) {
		switch {
		case errors.Is(r.Err, objstore.ErrNotFound):
			continue
		case r.Err != nil:
			return nil, "", fmt.Errorf("h2fs: list %s: %s: %w", path, entries[i].Name, r.Err)
		case entries[i].IsDir:
			continue
		}
		entries[i].Size = r.Info.Size
		if c, ok := core.ParseChunkManifest(r.Info.Meta); ok {
			entries[i].Size = c.Size
		}
	}
	return entries, next, nil
}

// putDirObject writes the directory object that links name in namespace
// parentNS to the directory's own namespace ns: MKDIR, MOVE and COPY of a
// directory, and every directory of a copied subtree.
func (m *Middleware) putDirObject(ctx context.Context, account, parentNS, name, ns string, created int64) error {
	return m.store.Put(ctx, core.ChildKey(account, parentNS, name),
		core.EncodeDir(core.DirObject{NS: ns, Name: name, Created: created}),
		map[string]string{core.MetaType: core.TypeDir, core.MetaNS: ns})
}
