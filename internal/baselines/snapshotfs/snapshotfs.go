// Package snapshotfs implements the Compressed Snapshot baseline — the
// Cumulus design of the paper's §2 and Figure 1a.
//
// File contents are packed into segment objects; the directory structure
// is flattened into a one-dimensional metadata log. The combination is a
// Compressed Snapshot stored in the object cloud. The layout is excellent
// for whole-filesystem backup and restore, but any operation against the
// stored snapshot must traverse the metadata log to locate anything:
// random file access, LIST, MOVE, RMDIR and COPY are all O(N) (Table 1),
// while MKDIR and WRITE are cheap appends to the incremental log.
//
// The writer keeps the current snapshot view in client memory (as Cumulus
// does during a backup run); the O(N) virtual-time charges model
// operating against the stored snapshot, one metadata-log record scanned
// per file in the filesystem.
package snapshotfs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// entry is one metadata-log record of the current snapshot.
type entry struct {
	isDir   bool
	size    int64
	modTime time.Time
	segKey  string // segment object holding the content (files)
	offset  int64  // content offset within the segment
}

// FS is one account's Cumulus-style snapshot filesystem.
type FS struct {
	store     objstore.Store
	profile   cluster.CostProfile
	account   string
	clock     func() time.Time
	segTarget int

	mu      sync.Mutex
	entries map[string]entry
	segBuf  []byte
	segSeq  int
}

var _ fsapi.FileSystem = (*FS)(nil)

// New returns an empty snapshot filesystem. segTarget is the segment size
// at which the current segment is sealed and uploaded (default 64 KiB).
func New(store objstore.Store, profile cluster.CostProfile, account string, clock func() time.Time, segTarget int) *FS {
	if clock == nil {
		clock = time.Now
	}
	if segTarget <= 0 {
		segTarget = 64 << 10
	}
	return &FS{
		store:     store,
		profile:   profile,
		account:   account,
		clock:     clock,
		segTarget: segTarget,
		entries:   make(map[string]entry),
	}
}

func (f *FS) segKey(seq int) string {
	return "cum|" + f.account + "|seg" + strconv.Itoa(seq)
}

// chargeLogScan prices one full traversal of the metadata log — the O(N)
// term that dominates every snapshot operation except appends.
func (f *FS) chargeLogScan(ctx context.Context) {
	vclock.Charge(ctx, time.Duration(len(f.entries))*f.profile.DBScan)
}

// currentSegKey returns the key the in-progress segment will be stored
// under.
func (f *FS) currentSegKey() string { return f.segKey(f.segSeq) }

// sealSegment uploads the in-progress segment and starts a new one.
// Caller holds f.mu.
func (f *FS) sealSegment(ctx context.Context) error {
	if len(f.segBuf) == 0 {
		return nil
	}
	if err := f.store.Put(ctx, f.currentSegKey(), f.segBuf, nil); err != nil {
		return err
	}
	f.segSeq++
	f.segBuf = nil
	return nil
}

// Mkdir appends one record to the incremental metadata log — O(1).
func (f *FS) Mkdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("snapshotfs: /: %w", fsapi.ErrExists)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkParentLocked(p); err != nil {
		return err
	}
	if _, ok := f.entries[p]; ok {
		return fmt.Errorf("snapshotfs: %s: %w", p, fsapi.ErrExists)
	}
	vclock.Charge(ctx, f.profile.DBWrite) // one incremental-log append
	f.entries[p] = entry{isDir: true, modTime: f.clock()}
	return nil
}

func (f *FS) checkParentLocked(p string) error {
	dir, _, err := fsapi.Split(p)
	if err != nil {
		return err
	}
	if dir == "/" {
		return nil
	}
	e, ok := f.entries[dir]
	if !ok {
		return fmt.Errorf("snapshotfs: %s: %w", dir, fsapi.ErrNotFound)
	}
	if !e.isDir {
		return fmt.Errorf("snapshotfs: %s: %w", dir, fsapi.ErrNotDir)
	}
	return nil
}

// WriteFile appends the content to the current segment and a record to
// the incremental log — an O(1) append, the one operation backup systems
// optimize for.
func (f *FS) WriteFile(ctx context.Context, path string, data []byte) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("snapshotfs: /: %w", fsapi.ErrIsDir)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkParentLocked(p); err != nil {
		return err
	}
	if e, ok := f.entries[p]; ok && e.isDir {
		return fmt.Errorf("snapshotfs: %s: %w", p, fsapi.ErrIsDir)
	}
	off := int64(len(f.segBuf))
	f.segBuf = append(f.segBuf, data...)
	f.entries[p] = entry{
		size: int64(len(data)), modTime: f.clock(),
		segKey: f.currentSegKey(), offset: off,
	}
	if len(f.segBuf) >= f.segTarget {
		return f.sealSegment(ctx)
	}
	return nil
}

// ReadFile locates the record by traversing the metadata log (O(N)) and
// extracts the content from its segment.
func (f *FS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p == "/" {
		return nil, fmt.Errorf("snapshotfs: /: %w", fsapi.ErrIsDir)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.chargeLogScan(ctx)
	e, ok := f.entries[p]
	if !ok {
		return nil, fmt.Errorf("snapshotfs: %s: %w", p, fsapi.ErrNotFound)
	}
	if e.isDir {
		return nil, fmt.Errorf("snapshotfs: %s: %w", p, fsapi.ErrIsDir)
	}
	if e.segKey == f.currentSegKey() && e.offset < int64(len(f.segBuf)) {
		// Content still in the unsealed segment buffer.
		out := make([]byte, e.size)
		copy(out, f.segBuf[e.offset:e.offset+e.size])
		return out, nil
	}
	seg, _, err := f.store.Get(ctx, e.segKey)
	if err != nil {
		return nil, fmt.Errorf("snapshotfs: %s: segment: %w", p, err)
	}
	if e.offset+e.size > int64(len(seg)) {
		return nil, fmt.Errorf("snapshotfs: %s: segment truncated", p)
	}
	out := make([]byte, e.size)
	copy(out, seg[e.offset:e.offset+e.size])
	return out, nil
}

// Stat traverses the metadata log to locate the record — the O(N) random
// file access of Table 1.
func (f *FS) Stat(ctx context.Context, path string) (fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	if p == "/" {
		return fsapi.EntryInfo{Name: "/", IsDir: true}, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.chargeLogScan(ctx)
	e, ok := f.entries[p]
	if !ok {
		return fsapi.EntryInfo{}, fmt.Errorf("snapshotfs: %s: %w", p, fsapi.ErrNotFound)
	}
	_, name, _ := fsapi.Split(p)
	return fsapi.EntryInfo{Name: name, IsDir: e.isDir, Size: e.size, ModTime: e.modTime}, nil
}

// Remove drops the record; segment bytes are reclaimed only by segment
// cleaning (not modeled) — O(1) log append.
func (f *FS) Remove(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[p]
	if !ok {
		return fmt.Errorf("snapshotfs: %s: %w", p, fsapi.ErrNotFound)
	}
	if e.isDir {
		return fmt.Errorf("snapshotfs: %s: %w", p, fsapi.ErrIsDir)
	}
	delete(f.entries, p)
	return nil
}

// List traverses the whole metadata log to find the directory's children —
// O(N).
func (f *FS) List(ctx context.Context, path string, detail bool) ([]fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if p != "/" {
		e, ok := f.entries[p]
		if !ok {
			return nil, fmt.Errorf("snapshotfs: %s: %w", p, fsapi.ErrNotFound)
		}
		if !e.isDir {
			return nil, fmt.Errorf("snapshotfs: %s: %w", p, fsapi.ErrNotDir)
		}
	}
	f.chargeLogScan(ctx)
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	var out []fsapi.EntryInfo
	for cand, e := range f.entries {
		if len(cand) <= len(prefix) || cand[:len(prefix)] != prefix {
			continue
		}
		rest := cand[len(prefix):]
		if indexByte(rest, '/') >= 0 {
			continue
		}
		info := fsapi.EntryInfo{Name: rest, IsDir: e.isDir}
		if detail {
			info.Size = e.size
			info.ModTime = e.modTime
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Rmdir rewrites the flattened directory list without the subtree — O(N).
func (f *FS) Rmdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("snapshotfs: /: %w", fsapi.ErrInvalidPath)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[p]
	if !ok {
		return fmt.Errorf("snapshotfs: %s: %w", p, fsapi.ErrNotFound)
	}
	if !e.isDir {
		return fmt.Errorf("snapshotfs: %s: %w", p, fsapi.ErrNotDir)
	}
	f.chargeLogScan(ctx)
	for cand := range f.entries {
		if cand == p || fsapi.IsAncestor(p, cand) {
			delete(f.entries, cand)
		}
	}
	return nil
}

// Move rewrites every affected record in the flattened list — O(N).
func (f *FS) Move(ctx context.Context, src, dst string) error {
	srcP, dstP, err := fsapi.CleanMovePair(src, dst)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkMovePairLocked(srcP, dstP); err != nil {
		return err
	}
	f.chargeLogScan(ctx)
	moves := map[string]string{}
	for cand := range f.entries {
		if cand == srcP || fsapi.IsAncestor(srcP, cand) {
			moves[cand] = dstP + cand[len(srcP):]
		}
	}
	for from, to := range moves {
		f.entries[to] = f.entries[from]
		delete(f.entries, from)
	}
	return nil
}

// Copy duplicates the records; segment content is shared (snapshots are
// content-immutable) — O(N) log traversal.
func (f *FS) Copy(ctx context.Context, src, dst string) error {
	srcP, dstP, err := fsapi.CleanMovePair(src, dst)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkMovePairLocked(srcP, dstP); err != nil {
		return err
	}
	f.chargeLogScan(ctx)
	copies := map[string]entry{}
	for cand, e := range f.entries {
		if cand == srcP || fsapi.IsAncestor(srcP, cand) {
			copies[dstP+cand[len(srcP):]] = e
		}
	}
	for to, e := range copies {
		f.entries[to] = e
	}
	return nil
}

func (f *FS) checkMovePairLocked(srcP, dstP string) error {
	if _, ok := f.entries[srcP]; !ok {
		return fmt.Errorf("snapshotfs: %s: %w", srcP, fsapi.ErrNotFound)
	}
	if _, ok := f.entries[dstP]; ok {
		return fmt.Errorf("snapshotfs: %s: %w", dstP, fsapi.ErrExists)
	}
	return f.checkParentLocked(dstP)
}

// Len reports the number of metadata-log records (for tests).
func (f *FS) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}
