// Package chfs implements the plain Consistent Hash pseudo-filesystem of
// the paper's §2 and Figure 1b: the file's full path is hashed to place it
// on the consistent hashing ring, directories are zero-byte marker
// objects, and no index of any kind exists.
//
// The consequence, quantified in Table 1, is that file access and MKDIR
// are O(1) while every operation that traverses or changes the directory
// structure must be performed across all affected files: LIST scans the
// entire flat namespace (O(N)), and MOVE/RMDIR/COPY rewrite each of the
// directory's n files because their keys embed the full path.
//
// The object Store interface deliberately has no enumeration primitive
// (real clouds page through container listings); FS mirrors the account's
// key set in memory as that listing, and charges one HEAD per visited key
// when it scans.
package chfs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

const (
	metaType = "h2type"
	typeFile = "file"
	typeDir  = "dir"
)

// FS is one account's pseudo-filesystem over plain consistent hashing.
type FS struct {
	store   objstore.Store
	profile cluster.CostProfile
	account string
	clock   func() time.Time

	mu    sync.RWMutex
	paths map[string]bool // cleaned path -> isDir (the flat namespace)
}

var _ fsapi.FileSystem = (*FS)(nil)

// New returns an empty pseudo-filesystem for one account.
func New(store objstore.Store, profile cluster.CostProfile, account string, clock func() time.Time) *FS {
	if clock == nil {
		clock = time.Now
	}
	return &FS{
		store:   store,
		profile: profile,
		account: account,
		clock:   clock,
		paths:   make(map[string]bool),
	}
}

// key returns the object key for a path: the hashed full file path of
// Figure 1b.
func (f *FS) key(path string) string { return "ch|" + f.account + path }

func (f *FS) isDir(path string) (isDir, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	isDir, ok = f.paths[path]
	return isDir, ok
}

// setPath, deletePath, movePath, and copyPath are the defer-scoped
// critical sections for the in-memory namespace index; every map
// mutation goes through one of them.
func (f *FS) setPath(p string, isDir bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.paths[p] = isDir
}

func (f *FS) deletePath(p string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.paths, p)
}

func (f *FS) movePath(from, to string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.paths[to] = f.paths[from]
	delete(f.paths, from)
}

func (f *FS) copyPath(from, to string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.paths[to] = f.paths[from]
}

// checkParent verifies the parent directory of a cleaned path exists,
// charging the HEAD a real proxy would issue.
func (f *FS) checkParent(ctx context.Context, p string) error {
	dir, _, err := fsapi.Split(p)
	if err != nil {
		return err
	}
	if dir == "/" {
		return nil
	}
	vclock.Charge(ctx, f.profile.Head)
	isDir, ok := f.isDir(dir)
	if !ok {
		return fmt.Errorf("chfs: %s: %w", dir, fsapi.ErrNotFound)
	}
	if !isDir {
		return fmt.Errorf("chfs: %s: %w", dir, fsapi.ErrNotDir)
	}
	return nil
}

// Mkdir creates a zero-byte directory marker object — O(1).
func (f *FS) Mkdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("chfs: /: %w", fsapi.ErrExists)
	}
	if err := f.checkParent(ctx, p); err != nil {
		return err
	}
	vclock.Charge(ctx, f.profile.Head) // existence probe
	if _, ok := f.isDir(p); ok {
		return fmt.Errorf("chfs: %s: %w", p, fsapi.ErrExists)
	}
	if err := f.store.Put(ctx, f.key(p), nil, map[string]string{metaType: typeDir}); err != nil {
		return err
	}
	f.setPath(p, true)
	return nil
}

// WriteFile stores the file object under its hashed full path — O(1).
func (f *FS) WriteFile(ctx context.Context, path string, data []byte) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("chfs: /: %w", fsapi.ErrIsDir)
	}
	if err := f.checkParent(ctx, p); err != nil {
		return err
	}
	if isDir, ok := f.isDir(p); ok && isDir {
		return fmt.Errorf("chfs: %s: %w", p, fsapi.ErrIsDir)
	}
	if err := f.store.Put(ctx, f.key(p), data, map[string]string{metaType: typeFile}); err != nil {
		return err
	}
	f.setPath(p, false)
	return nil
}

// ReadFile fetches the object at the hashed full path — O(1).
func (f *FS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p == "/" {
		return nil, fmt.Errorf("chfs: /: %w", fsapi.ErrIsDir)
	}
	if isDir, ok := f.isDir(p); ok && isDir {
		return nil, fmt.Errorf("chfs: %s: %w", p, fsapi.ErrIsDir)
	}
	data, _, err := f.store.Get(ctx, f.key(p))
	if err != nil {
		return nil, fmt.Errorf("chfs: %s: %w", p, fsapi.ErrNotFound)
	}
	return data, nil
}

// Stat resolves a path with one HEAD — the O(1) file access of Table 1.
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
		return fsapi.EntryInfo{}, fmt.Errorf("chfs: %s: %w", p, fsapi.ErrNotFound)
	}
	_, name, _ := fsapi.Split(p)
	return fsapi.EntryInfo{
		Name:    name,
		IsDir:   info.Meta[metaType] == typeDir,
		Size:    info.Size,
		ModTime: info.LastModified,
	}, nil
}

// Remove deletes a single file object — O(1).
func (f *FS) Remove(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	isDir, ok := f.isDir(p)
	if !ok {
		return fmt.Errorf("chfs: %s: %w", p, fsapi.ErrNotFound)
	}
	if isDir {
		return fmt.Errorf("chfs: %s: %w", p, fsapi.ErrIsDir)
	}
	if err := f.store.Delete(ctx, f.key(p)); err != nil && !errors.Is(err, objstore.ErrNotFound) {
		return err
	}
	f.deletePath(p)
	return nil
}

// snapshotPaths copies the namespace for a scan, charging per visited key.
func (f *FS) scanAll(ctx context.Context) map[string]bool {
	out := f.snapshotPaths()
	vclock.Charge(ctx, time.Duration(len(out))*f.profile.Head)
	return out
}

// snapshotPaths copies the namespace index under the read lock.
func (f *FS) snapshotPaths() map[string]bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]bool, len(f.paths))
	for p, d := range f.paths {
		out[p] = d
	}
	return out
}

// subtreePaths returns every path at or under root, charging one HEAD per
// member (the by-prefix container listing a real deployment would page
// through).
func (f *FS) subtreePaths(ctx context.Context, root string) []string {
	out := f.subtreeMembers(root)
	vclock.Charge(ctx, time.Duration(len(out))*f.profile.Head)
	return out
}

// subtreeMembers gathers every path at or under root, sorted, under the
// read lock.
func (f *FS) subtreeMembers(root string) []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []string
	for p := range f.paths {
		if p == root || fsapi.IsAncestor(root, p) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// List enumerates the entire flat namespace to find direct children — the
// O(N) LIST of Table 1.
func (f *FS) List(ctx context.Context, path string, detail bool) ([]fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p != "/" {
		isDir, ok := f.isDir(p)
		if !ok {
			return nil, fmt.Errorf("chfs: %s: %w", p, fsapi.ErrNotFound)
		}
		if !isDir {
			return nil, fmt.Errorf("chfs: %s: %w", p, fsapi.ErrNotDir)
		}
	}
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	all := f.scanAll(ctx)
	var entries []fsapi.EntryInfo
	for cand, isDir := range all {
		if !strings.HasPrefix(cand, prefix) {
			continue
		}
		rest := cand[len(prefix):]
		if rest == "" || strings.ContainsRune(rest, '/') {
			continue
		}
		entries = append(entries, fsapi.EntryInfo{Name: rest, IsDir: isDir})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	if detail {
		keys := make([]string, len(entries))
		for i, e := range entries {
			keys[i] = f.key(fsapi.Join(p, e.Name))
		}
		for i, r := range objstore.MultiHead(ctx, f.store, keys) {
			if r.Err == nil {
				entries[i].Size = r.Info.Size
				entries[i].ModTime = r.Info.LastModified
			}
		}
	}
	return entries, nil
}

// Rmdir removes a directory by deleting each of its n files — O(n).
func (f *FS) Rmdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("chfs: /: %w", fsapi.ErrInvalidPath)
	}
	isDir, ok := f.isDir(p)
	if !ok {
		return fmt.Errorf("chfs: %s: %w", p, fsapi.ErrNotFound)
	}
	if !isDir {
		return fmt.Errorf("chfs: %s: %w", p, fsapi.ErrNotDir)
	}
	for _, member := range f.subtreePaths(ctx, p) {
		if err := f.store.Delete(ctx, f.key(member)); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
		f.deletePath(member)
	}
	return nil
}

// Move relocates a subtree by copying and deleting every member object:
// the keys embed the full path, so each of the n files must be rewritten —
// O(n).
func (f *FS) Move(ctx context.Context, src, dst string) error {
	srcP, dstP, err := f.checkSrcDst(ctx, src, dst)
	if err != nil {
		return err
	}
	for _, member := range f.subtreePaths(ctx, srcP) {
		target := dstP + member[len(srcP):]
		if err := f.store.Copy(ctx, f.key(member), f.key(target)); err != nil {
			return err
		}
		if err := f.store.Delete(ctx, f.key(member)); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
		f.movePath(member, target)
	}
	return nil
}

// Copy duplicates a subtree member by member — O(n).
func (f *FS) Copy(ctx context.Context, src, dst string) error {
	srcP, dstP, err := f.checkSrcDst(ctx, src, dst)
	if err != nil {
		return err
	}
	for _, member := range f.subtreePaths(ctx, srcP) {
		target := dstP + member[len(srcP):]
		if err := f.store.Copy(ctx, f.key(member), f.key(target)); err != nil {
			return err
		}
		f.copyPath(member, target)
	}
	return nil
}

func (f *FS) checkSrcDst(ctx context.Context, src, dst string) (string, string, error) {
	srcP, dstP, err := fsapi.CleanMovePair(src, dst)
	if err != nil {
		return "", "", err
	}
	vclock.Charge(ctx, 2*f.profile.Head) // src and dst probes
	if _, ok := f.isDir(srcP); !ok {
		return "", "", fmt.Errorf("chfs: %s: %w", srcP, fsapi.ErrNotFound)
	}
	if _, ok := f.isDir(dstP); ok {
		return "", "", fmt.Errorf("chfs: %s: %w", dstP, fsapi.ErrExists)
	}
	if err := f.checkParent(ctx, dstP); err != nil {
		return "", "", err
	}
	return srcP, dstP, nil
}
