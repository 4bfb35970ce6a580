// Package sidxfs implements the Single Index Server baseline of the
// paper's §2: the GFS/HDFS architecture where one central index server
// (the namenode) keeps the entire filesystem tree for the storage cluster
// and leaves refer to content objects in the object cloud.
//
// Metadata operations are fast — the namenode answers MKDIR/RMDIR/MOVE in
// O(1) and LIST in O(m) from memory — but every request funnels through
// the single server, which is the scalability ceiling Table 1 notes
// ("Limited") and the reason mainstream cloud storage services avoid the
// design. Each namenode visit charges one IndexRead (plus IndexCommit for
// mutations); inode lookups walk d levels in namenode memory, charged one
// IndexRecord per level.
package sidxfs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// inode is one namenode table entry.
type inode struct {
	id       int64
	isDir    bool
	size     int64
	modTime  time.Time
	children map[string]int64 // name -> inode id (directories)
}

// FS is one account's filesystem through a single namenode.
type FS struct {
	store   objstore.Store
	profile cluster.CostProfile
	account string
	clock   func() time.Time

	mu     sync.RWMutex
	inodes map[int64]*inode
	nextID int64
}

var _ fsapi.FileSystem = (*FS)(nil)

const rootID int64 = 1

// New returns an empty single-index filesystem for one account.
func New(store objstore.Store, profile cluster.CostProfile, account string, clock func() time.Time) *FS {
	if clock == nil {
		clock = time.Now
	}
	f := &FS{
		store:   store,
		profile: profile,
		account: account,
		clock:   clock,
		inodes:  map[int64]*inode{rootID: {id: rootID, isDir: true, children: map[string]int64{}}},
		nextID:  rootID + 1,
	}
	return f
}

func (f *FS) objKey(id int64) string {
	return "si|" + f.account + "|" + strconv.FormatInt(id, 10)
}

// chargeVisit prices one namenode round trip plus the in-memory walk.
func (f *FS) chargeVisit(ctx context.Context, levels int) {
	vclock.Charge(ctx, f.profile.IndexRead+time.Duration(levels)*f.profile.IndexRecord)
}

// walk resolves a cleaned path. Caller holds a lock.
func (f *FS) walk(p string) (*inode, error) {
	n := f.inodes[rootID]
	if p == "/" {
		return n, nil
	}
	for _, comp := range strings.Split(p[1:], "/") {
		if !n.isDir {
			return nil, fmt.Errorf("sidxfs: %w", fsapi.ErrNotDir)
		}
		id, ok := n.children[comp]
		if !ok {
			return nil, fmt.Errorf("sidxfs: %s: %w", p, fsapi.ErrNotFound)
		}
		n = f.inodes[id]
	}
	return n, nil
}

func (f *FS) walkParent(p string) (*inode, string, error) {
	dir, name, err := fsapi.Split(p)
	if err != nil {
		return nil, "", err
	}
	parent, err := f.walk(dir)
	if err != nil {
		return nil, "", err
	}
	if !parent.isDir {
		return nil, "", fmt.Errorf("sidxfs: %s: %w", dir, fsapi.ErrNotDir)
	}
	return parent, name, nil
}

// Mkdir commits one namespace record — O(1).
func (f *FS) Mkdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("sidxfs: /: %w", fsapi.ErrExists)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.walkParent(p)
	if err != nil {
		return err
	}
	f.chargeVisit(ctx, fsapi.Depth(p))
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("sidxfs: %s: %w", p, fsapi.ErrExists)
	}
	id := f.nextID
	f.nextID++
	f.inodes[id] = &inode{id: id, isDir: true, modTime: f.clock(), children: map[string]int64{}}
	parent.children[name] = id
	vclock.Charge(ctx, f.profile.IndexCommit)
	return nil
}

// WriteFile stores the content object and commits the inode.
func (f *FS) WriteFile(ctx context.Context, path string, data []byte) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("sidxfs: /: %w", fsapi.ErrIsDir)
	}
	f.mu.Lock()
	parent, name, err := f.walkParent(p)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	f.chargeVisit(ctx, fsapi.Depth(p))
	var n *inode
	if id, ok := parent.children[name]; ok {
		n = f.inodes[id]
		if n.isDir {
			f.mu.Unlock()
			return fmt.Errorf("sidxfs: %s: %w", p, fsapi.ErrIsDir)
		}
	} else {
		id := f.nextID
		f.nextID++
		n = &inode{id: id, modTime: f.clock()}
		f.inodes[id] = n
		parent.children[name] = id
	}
	id := n.id
	f.mu.Unlock()

	if err := f.store.Put(ctx, f.objKey(id), data, nil); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n.size = int64(len(data))
	n.modTime = f.clock()
	vclock.Charge(ctx, f.profile.IndexCommit)
	return nil
}

// ReadFile resolves through the namenode and fetches the content object.
func (f *FS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p == "/" {
		return nil, fmt.Errorf("sidxfs: /: %w", fsapi.ErrIsDir)
	}
	id, err := f.fileID(ctx, p)
	if err != nil {
		return nil, err
	}
	data, _, err := f.store.Get(ctx, f.objKey(id))
	if err != nil {
		return nil, fmt.Errorf("sidxfs: %s: %w", p, fsapi.ErrNotFound)
	}
	return data, nil
}

// fileID resolves a cleaned file path to its inode id under the read
// lock, charging the namenode visit.
func (f *FS) fileID(ctx context.Context, p string) (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.walk(p)
	if err != nil {
		return 0, err
	}
	f.chargeVisit(ctx, fsapi.Depth(p))
	if n.isDir {
		return 0, fmt.Errorf("sidxfs: %s: %w", p, fsapi.ErrIsDir)
	}
	return n.id, nil
}

// Stat is one namenode visit walking d levels in memory — the O(d) file
// access of Table 1.
func (f *FS) Stat(ctx context.Context, path string) (fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.walk(p)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	f.chargeVisit(ctx, fsapi.Depth(p))
	name := "/"
	if p != "/" {
		_, name, _ = fsapi.Split(p)
	}
	return fsapi.EntryInfo{Name: name, IsDir: n.isDir, Size: n.size, ModTime: n.modTime}, nil
}

// Remove deletes one file inode and its content object.
func (f *FS) Remove(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("sidxfs: /: %w", fsapi.ErrIsDir)
	}
	id, err := f.unlinkFile(ctx, p)
	if err != nil {
		return err
	}
	if err := f.store.Delete(ctx, f.objKey(id)); err != nil && !errors.Is(err, objstore.ErrNotFound) {
		return err
	}
	return nil
}

// unlinkFile removes the file inode at cleaned path p under the write
// lock and returns its id so the caller can delete the content object.
func (f *FS) unlinkFile(ctx context.Context, p string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.walkParent(p)
	if err != nil {
		return 0, err
	}
	f.chargeVisit(ctx, fsapi.Depth(p))
	id, ok := parent.children[name]
	if !ok {
		return 0, fmt.Errorf("sidxfs: %s: %w", p, fsapi.ErrNotFound)
	}
	n := f.inodes[id]
	if n.isDir {
		return 0, fmt.Errorf("sidxfs: %s: %w", p, fsapi.ErrIsDir)
	}
	delete(parent.children, name)
	delete(f.inodes, id)
	vclock.Charge(ctx, f.profile.IndexCommit)
	return id, nil
}

// List reads the m child records from the namenode — O(m).
func (f *FS) List(ctx context.Context, path string, detail bool) ([]fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.walk(p)
	if err != nil {
		return nil, err
	}
	if !n.isDir {
		return nil, fmt.Errorf("sidxfs: %s: %w", p, fsapi.ErrNotDir)
	}
	f.chargeVisit(ctx, fsapi.Depth(p))
	vclock.Charge(ctx, time.Duration(len(n.children))*f.profile.IndexRecord)
	out := make([]fsapi.EntryInfo, 0, len(n.children))
	for name, id := range n.children {
		c := f.inodes[id]
		e := fsapi.EntryInfo{Name: name, IsDir: c.isDir}
		if detail {
			e.Size = c.size
			e.ModTime = c.modTime
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Rmdir detaches the subtree — one namenode commit, O(1); content objects
// are reclaimed synchronously afterwards (uncharged, as in h2fs).
func (f *FS) Rmdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("sidxfs: /: %w", fsapi.ErrInvalidPath)
	}
	fileIDs, err := f.detachSubtree(ctx, p)
	if err != nil {
		return err
	}
	for _, fid := range fileIDs {
		// Detached: once the rmdir tombstone landed, the orphan deletes must finish.
		gcCtx := vclock.With(context.WithoutCancel(ctx), nil)
		if err := f.store.Delete(gcCtx, f.objKey(fid)); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
	}
	return nil
}

// detachSubtree unlinks the directory at cleaned path p under the write
// lock and returns the file inode ids whose content objects need
// reclaiming.
func (f *FS) detachSubtree(ctx context.Context, p string) ([]int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.walkParent(p)
	if err != nil {
		return nil, err
	}
	f.chargeVisit(ctx, fsapi.Depth(p))
	id, ok := parent.children[name]
	if !ok {
		return nil, fmt.Errorf("sidxfs: %s: %w", p, fsapi.ErrNotFound)
	}
	n := f.inodes[id]
	if !n.isDir {
		return nil, fmt.Errorf("sidxfs: %s: %w", p, fsapi.ErrNotDir)
	}
	delete(parent.children, name)
	var fileIDs []int64
	f.detach(n, &fileIDs)
	vclock.Charge(ctx, f.profile.IndexCommit)
	return fileIDs, nil
}

// detach removes a subtree from the inode table, collecting file ids.
// Caller holds the write lock.
func (f *FS) detach(n *inode, fileIDs *[]int64) {
	if !n.isDir {
		*fileIDs = append(*fileIDs, n.id)
		delete(f.inodes, n.id)
		return
	}
	for _, id := range n.children {
		f.detach(f.inodes[id], fileIDs)
	}
	delete(f.inodes, n.id)
}

// Move re-points one directory entry — O(1).
func (f *FS) Move(ctx context.Context, src, dst string) error {
	srcP, dstP, err := fsapi.CleanMovePair(src, dst)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	srcParent, srcName, err := f.walkParent(srcP)
	if err != nil {
		return err
	}
	id, ok := srcParent.children[srcName]
	if !ok {
		return fmt.Errorf("sidxfs: %s: %w", srcP, fsapi.ErrNotFound)
	}
	dstParent, dstName, err := f.walkParent(dstP)
	if err != nil {
		return err
	}
	f.chargeVisit(ctx, fsapi.Depth(srcP)+fsapi.Depth(dstP))
	if _, exists := dstParent.children[dstName]; exists {
		return fmt.Errorf("sidxfs: %s: %w", dstP, fsapi.ErrExists)
	}
	delete(srcParent.children, srcName)
	dstParent.children[dstName] = id
	vclock.Charge(ctx, f.profile.IndexCommit)
	return nil
}

// Copy duplicates the subtree: metadata on the namenode, content via
// server-side copies — O(n).
func (f *FS) Copy(ctx context.Context, src, dst string) error {
	srcP, dstP, err := fsapi.CleanMovePair(src, dst)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	srcNode, err := f.walk(srcP)
	if err != nil {
		return err
	}
	dstParent, dstName, err := f.walkParent(dstP)
	if err != nil {
		return err
	}
	f.chargeVisit(ctx, fsapi.Depth(srcP)+fsapi.Depth(dstP))
	if _, exists := dstParent.children[dstName]; exists {
		return fmt.Errorf("sidxfs: %s: %w", dstP, fsapi.ErrExists)
	}
	cloneID, err := f.copyInode(ctx, srcNode)
	if err != nil {
		return err
	}
	dstParent.children[dstName] = cloneID
	vclock.Charge(ctx, f.profile.IndexCommit)
	return nil
}

func (f *FS) copyInode(ctx context.Context, n *inode) (int64, error) {
	id := f.nextID
	f.nextID++
	clone := &inode{id: id, isDir: n.isDir, size: n.size, modTime: f.clock()}
	f.inodes[id] = clone
	if !n.isDir {
		if err := f.store.Copy(ctx, f.objKey(n.id), f.objKey(id)); err != nil {
			return 0, err
		}
		return id, nil
	}
	clone.children = make(map[string]int64, len(n.children))
	for name, cid := range n.children {
		ccid, err := f.copyInode(ctx, f.inodes[cid])
		if err != nil {
			return 0, err
		}
		clone.children[name] = ccid
	}
	return id, nil
}

// InodeCount reports the namenode table size (for tests).
func (f *FS) InodeCount() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.inodes)
}
