// Package swiftfs implements the paper's OpenStack Swift baseline: a
// Consistent Hash pseudo-filesystem paired with a per-account file-path
// database (§2, Figure 3).
//
// Files and directory markers are placed by hashing their full paths,
// exactly as in package chfs; in addition every path is a record in an
// ordered file-path DB (package pathdb, standing in for Swift's SQLite
// container databases). Binary search over the DB gives the improved
// complexities of Table 1: LIST drops from O(N) to O(m·logN) — one or two
// ordered seeks per distinct child, the delimiter-query pattern of real
// Swift — and COPY from O(N) to O(n+logN). Directory operations that
// change paths still rewrite each affected file (O(n)), because the keys
// embed the full path; that is the behaviour Figures 7 and 8 measure.
package swiftfs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/pathdb"
)

const (
	metaType = "h2type"
	typeFile = "file"
	typeDir  = "dir"
)

// FS is one account's Swift-style pseudo-filesystem (CH + file-path DB).
type FS struct {
	store   objstore.Store
	profile cluster.CostProfile
	account string
	clock   func() time.Time

	// One mutex serializes DB access, mirroring SQLite's single-writer
	// model for the per-account container database.
	mu sync.Mutex
	db *pathdb.DB
}

var _ fsapi.FileSystem = (*FS)(nil)

// New returns an empty Swift-style filesystem for one account.
func New(store objstore.Store, profile cluster.CostProfile, account string, clock func() time.Time) *FS {
	if clock == nil {
		clock = time.Now
	}
	if profile.Fanout <= 0 {
		profile.Fanout = 16
	}
	return &FS{
		store:   store,
		profile: profile,
		account: account,
		clock:   clock,
		db: pathdb.New(pathdb.Costs{
			Probe: profile.DBProbe,
			Scan:  profile.DBScan,
			Write: profile.DBWrite,
		}),
	}
}

func (f *FS) key(path string) string { return "sw|" + f.account + path }

// lookup returns the DB record for a cleaned path.
func (f *FS) lookup(ctx context.Context, p string) (pathdb.Record, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db.Get(ctx, p)
}

// dbInsert, dbDelete, and dbRename are the defer-scoped critical
// sections for the file-path DB; every mutation goes through one.
func (f *FS) dbInsert(ctx context.Context, rec pathdb.Record) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.db.Insert(ctx, rec)
}

func (f *FS) dbDelete(ctx context.Context, p string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.db.Delete(ctx, p)
}

func (f *FS) dbRename(ctx context.Context, rec pathdb.Record, target string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.db.Delete(ctx, rec.Path)
	rec.Path = target
	f.db.Insert(ctx, rec)
}

func (f *FS) checkParent(ctx context.Context, p string) error {
	dir, _, err := fsapi.Split(p)
	if err != nil {
		return err
	}
	if dir == "/" {
		return nil
	}
	rec, ok := f.lookup(ctx, dir)
	if !ok {
		return fmt.Errorf("swiftfs: %s: %w", dir, fsapi.ErrNotFound)
	}
	if !rec.IsDir {
		return fmt.Errorf("swiftfs: %s: %w", dir, fsapi.ErrNotDir)
	}
	return nil
}

// Mkdir creates a marker object and a DB record — O(1).
func (f *FS) Mkdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("swiftfs: /: %w", fsapi.ErrExists)
	}
	if err := f.checkParent(ctx, p); err != nil {
		return err
	}
	if _, ok := f.lookup(ctx, p); ok {
		return fmt.Errorf("swiftfs: %s: %w", p, fsapi.ErrExists)
	}
	if err := f.store.Put(ctx, f.key(p), nil, map[string]string{metaType: typeDir}); err != nil {
		return err
	}
	f.dbInsert(ctx, pathdb.Record{Path: p, IsDir: true, ModTime: f.clock()})
	return nil
}

// WriteFile stores the object and upserts the DB record — O(1).
func (f *FS) WriteFile(ctx context.Context, path string, data []byte) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("swiftfs: /: %w", fsapi.ErrIsDir)
	}
	if err := f.checkParent(ctx, p); err != nil {
		return err
	}
	if rec, ok := f.lookup(ctx, p); ok && rec.IsDir {
		return fmt.Errorf("swiftfs: %s: %w", p, fsapi.ErrIsDir)
	}
	if err := f.store.Put(ctx, f.key(p), data, map[string]string{metaType: typeFile}); err != nil {
		return err
	}
	f.dbInsert(ctx, pathdb.Record{Path: p, Size: int64(len(data)), ModTime: f.clock()})
	return nil
}

// ReadFile fetches the object at the hashed full path — O(1).
func (f *FS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p == "/" {
		return nil, fmt.Errorf("swiftfs: /: %w", fsapi.ErrIsDir)
	}
	if rec, ok := f.lookup(ctx, p); ok && rec.IsDir {
		return nil, fmt.Errorf("swiftfs: %s: %w", p, fsapi.ErrIsDir)
	}
	data, _, err := f.store.Get(ctx, f.key(p))
	if err != nil {
		return nil, fmt.Errorf("swiftfs: %s: %w", p, fsapi.ErrNotFound)
	}
	return data, nil
}

// Stat hashes the full path and issues one HEAD — the O(1) file access
// that keeps Swift flat in Figure 13.
func (f *FS) Stat(ctx context.Context, path string) (fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	if p == "/" {
		return fsapi.EntryInfo{Name: "/", IsDir: true}, nil
	}
	info, err := f.store.Head(ctx, f.key(p))
	if err != nil {
		return fsapi.EntryInfo{}, fmt.Errorf("swiftfs: %s: %w", p, fsapi.ErrNotFound)
	}
	_, name, _ := fsapi.Split(p)
	return fsapi.EntryInfo{
		Name:    name,
		IsDir:   info.Meta[metaType] == typeDir,
		Size:    info.Size,
		ModTime: info.LastModified,
	}, nil
}

// Remove deletes the object and its DB record — O(1).
func (f *FS) Remove(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	rec, ok := f.lookup(ctx, p)
	if !ok {
		return fmt.Errorf("swiftfs: %s: %w", p, fsapi.ErrNotFound)
	}
	if rec.IsDir {
		return fmt.Errorf("swiftfs: %s: %w", p, fsapi.ErrIsDir)
	}
	if err := f.store.Delete(ctx, f.key(p)); err != nil && !errors.Is(err, objstore.ErrNotFound) {
		return err
	}
	f.dbDelete(ctx, p)
	return nil
}

// List runs the delimiter-query pattern over the file-path DB: each
// distinct child costs one or two ordered seeks (binary searches), giving
// the O(m·logN) complexity of Table 1. Detailed metadata comes from the
// DB records themselves, as in real Swift container listings.
func (f *FS) List(ctx context.Context, path string, detail bool) ([]fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p != "/" {
		rec, ok := f.lookup(ctx, p)
		if !ok {
			return nil, fmt.Errorf("swiftfs: %s: %w", p, fsapi.ErrNotFound)
		}
		if !rec.IsDir {
			return nil, fmt.Errorf("swiftfs: %s: %w", p, fsapi.ErrNotDir)
		}
	}
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	var entries []fsapi.EntryInfo
	seen := make(map[string]bool)
	from := prefix
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		var rec pathdb.Record
		found := false
		f.db.ScanRange(ctx, from, prefix+"\xff", func(r pathdb.Record) bool {
			rec, found = r, true
			return false
		})
		if !found {
			break
		}
		rest := rec.Path[len(prefix):]
		name, deeper := rest, false
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			name, deeper = rest[:i], true
		}
		if seen[name] {
			// Inside an already-reported child's subtree: seek past it.
			// '/'+1 == '0', the immediate successor of the subtree range.
			from = prefix + name + "0"
			continue
		}
		seen[name] = true
		e := fsapi.EntryInfo{Name: name, IsDir: deeper || rec.IsDir}
		if !deeper && detail {
			e.Size = rec.Size
			e.ModTime = rec.ModTime
		}
		entries = append(entries, e)
		from = prefix + name + "\x00"
	}
	return entries, nil
}

// subtree returns the DB records at or under root, in path order, charging
// one scan step per record — the O(n) discovery that dominates MOVE,
// RMDIR and COPY.
func (f *FS) subtree(ctx context.Context, root string) []pathdb.Record {
	var out []pathdb.Record
	f.mu.Lock()
	defer f.mu.Unlock()
	if rec, ok := f.db.Get(ctx, root); ok {
		out = append(out, rec)
	}
	f.db.ScanPrefix(ctx, root+"/", func(r pathdb.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Rmdir removes each of the directory's n files — O(n).
func (f *FS) Rmdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("swiftfs: /: %w", fsapi.ErrInvalidPath)
	}
	rec, ok := f.lookup(ctx, p)
	if !ok {
		return fmt.Errorf("swiftfs: %s: %w", p, fsapi.ErrNotFound)
	}
	if !rec.IsDir {
		return fmt.Errorf("swiftfs: %s: %w", p, fsapi.ErrNotDir)
	}
	for _, member := range f.subtree(ctx, p) {
		if err := f.store.Delete(ctx, f.key(member.Path)); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
		f.dbDelete(ctx, member.Path)
	}
	return nil
}

// Move rewrites every member object under a new full-path key — the O(n)
// curve of Figure 7.
func (f *FS) Move(ctx context.Context, src, dst string) error {
	srcP, dstP, err := f.checkSrcDst(ctx, src, dst)
	if err != nil {
		return err
	}
	for _, member := range f.subtree(ctx, srcP) {
		target := dstP + member.Path[len(srcP):]
		if err := f.store.Copy(ctx, f.key(member.Path), f.key(target)); err != nil {
			return err
		}
		if err := f.store.Delete(ctx, f.key(member.Path)); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
		f.dbRename(ctx, member, target)
	}
	return nil
}

// Copy duplicates the subtree — O(n + logN) with the DB locating the
// range in one binary search.
func (f *FS) Copy(ctx context.Context, src, dst string) error {
	srcP, dstP, err := f.checkSrcDst(ctx, src, dst)
	if err != nil {
		return err
	}
	for _, member := range f.subtree(ctx, srcP) {
		target := dstP + member.Path[len(srcP):]
		if err := f.store.Copy(ctx, f.key(member.Path), f.key(target)); err != nil {
			return err
		}
		member.Path = target
		f.dbInsert(ctx, member)
	}
	return nil
}

func (f *FS) checkSrcDst(ctx context.Context, src, dst string) (string, string, error) {
	srcP, dstP, err := fsapi.CleanMovePair(src, dst)
	if err != nil {
		return "", "", err
	}
	if _, ok := f.lookup(ctx, srcP); !ok {
		return "", "", fmt.Errorf("swiftfs: %s: %w", srcP, fsapi.ErrNotFound)
	}
	if _, ok := f.lookup(ctx, dstP); ok {
		return "", "", fmt.Errorf("swiftfs: %s: %w", dstP, fsapi.ErrExists)
	}
	if err := f.checkParent(ctx, dstP); err != nil {
		return "", "", err
	}
	return srcP, dstP, nil
}

// DBLen reports the number of file-path records (exposed for the storage
// overhead experiments).
func (f *FS) DBLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db.Len()
}
