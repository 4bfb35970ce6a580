// Package dpfs implements the Dynamic Partition baseline (paper §2,
// Figure 1c): the two-cloud architecture of Ceph/PanFS and — per the
// paper's inference in §5.3 — of Dropbox.
//
// Directories live in a small set of index servers; the directory tree is
// dynamically partitioned across them for load balance, and each leaf
// refers to a content object in the object storage cloud. Directory
// operations are pointer updates on the index (O(1)), LIST reads m records
// from one index server (O(m)), and file access walks d levels that are
// usually co-located on a single index server — which is why Dropbox's
// measured access time looks O(1) with fluctuations where the path crosses
// partition boundaries (Figure 13).
//
// The price of this design is the separate index cloud itself: the index
// servers here are in-memory state that exists outside the object store,
// exactly the "secondary sub-system" H2Cloud exists to eliminate.
package dpfs

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

// node is one entry in the partitioned index tree.
type node struct {
	isDir    bool
	size     int64
	modTime  time.Time
	objKey   string           // content object key (files only)
	children map[string]*node // directories only
	server   int              // index server owning this directory
}

// FS is one account's Dynamic Partition filesystem.
type FS struct {
	store   objstore.Store
	profile cluster.CostProfile
	account string
	clock   func() time.Time
	servers int
	// splitFactor controls dynamic partitioning: a new directory is
	// assigned to the least-loaded server once its parent's server holds
	// more than splitFactor times the mean directory count.
	splitFactor float64
	// minSplit is the minimum directory count on a server before it sheds
	// load: real DP systems split bulky subtrees, not every deep chain, so
	// small namespaces stay on one server (which is also what keeps
	// Dropbox-style file access flat in Figure 13).
	minSplit int

	mu       sync.RWMutex
	root     *node
	dirCount []int // directories per index server
	nextID   int64
}

var _ fsapi.FileSystem = (*FS)(nil)

// Option customizes a dpfs instance.
type Option func(*FS)

// WithServers sets the number of index servers (default 4).
func WithServers(n int) Option {
	return func(f *FS) {
		if n > 0 {
			f.servers = n
		}
	}
}

// WithSplitFactor sets the load-imbalance factor that triggers assigning
// new directories to the least-loaded index server (default 1.5).
func WithSplitFactor(s float64) Option {
	return func(f *FS) {
		if s > 0 {
			f.splitFactor = s
		}
	}
}

// WithMinSplit sets the minimum per-server directory count before load
// shedding starts (default 32).
func WithMinSplit(n int) Option {
	return func(f *FS) {
		if n > 0 {
			f.minSplit = n
		}
	}
}

// New returns an empty Dynamic Partition filesystem for one account.
func New(store objstore.Store, profile cluster.CostProfile, account string, clock func() time.Time, opts ...Option) *FS {
	if clock == nil {
		clock = time.Now
	}
	f := &FS{
		store:       store,
		profile:     profile,
		account:     account,
		clock:       clock,
		servers:     4,
		splitFactor: 1.5,
		minSplit:    32,
		root:        &node{isDir: true, children: map[string]*node{}, server: 0},
	}
	for _, o := range opts {
		o(f)
	}
	f.dirCount = make([]int, f.servers)
	f.dirCount[0] = 1
	return f
}

// pickServer implements the dynamic partitioning policy for a new
// directory: inherit the parent's server unless it is overloaded, in
// which case the least-loaded server takes the new subtree.
func (f *FS) pickServer(parent int) int {
	if f.servers == 1 || f.dirCount[parent] <= f.minSplit {
		return parent
	}
	total := 0
	for _, c := range f.dirCount {
		total += c
	}
	mean := float64(total) / float64(f.servers)
	if float64(f.dirCount[parent]) <= f.splitFactor*mean {
		return parent
	}
	min := 0
	for s := 1; s < f.servers; s++ {
		if f.dirCount[s] < f.dirCount[min] {
			min = s
		}
	}
	return min
}

// chargeWalk prices an index traversal: one RPC to the first index server
// plus one per partition crossing. This is what makes DP file access look
// flat with fluctuations (Figure 13).
func (f *FS) chargeWalk(ctx context.Context, servers []int) {
	if len(servers) == 0 {
		return
	}
	rpcs := 1
	for i := 1; i < len(servers); i++ {
		if servers[i] != servers[i-1] {
			rpcs++
		}
	}
	vclock.Charge(ctx, time.Duration(rpcs)*f.profile.IndexRead)
}

// resolve walks the index tree. Caller must hold at least a read lock.
func (f *FS) resolve(p string) (n *node, servers []int, err error) {
	n = f.root
	servers = []int{n.server}
	if p == "/" {
		return n, servers, nil
	}
	for _, comp := range strings.Split(p[1:], "/") {
		if !n.isDir {
			return nil, nil, fmt.Errorf("dpfs: %w", fsapi.ErrNotDir)
		}
		child, ok := n.children[comp]
		if !ok {
			return nil, nil, fmt.Errorf("dpfs: %s: %w", p, fsapi.ErrNotFound)
		}
		n = child
		if n.isDir {
			servers = append(servers, n.server)
		}
	}
	return n, servers, nil
}

// resolveParent returns the parent directory node of a cleaned non-root
// path. Caller must hold a lock.
func (f *FS) resolveParent(p string) (*node, []int, string, error) {
	dir, name, err := fsapi.Split(p)
	if err != nil {
		return nil, nil, "", err
	}
	parent, servers, err := f.resolve(dir)
	if err != nil {
		return nil, nil, "", err
	}
	if !parent.isDir {
		return nil, nil, "", fmt.Errorf("dpfs: %s: %w", dir, fsapi.ErrNotDir)
	}
	return parent, servers, name, nil
}

// Mkdir inserts one directory record — a single index commit, O(1).
func (f *FS) Mkdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("dpfs: /: %w", fsapi.ErrExists)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, servers, name, err := f.resolveParent(p)
	if err != nil {
		return err
	}
	f.chargeWalk(ctx, servers)
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("dpfs: %s: %w", p, fsapi.ErrExists)
	}
	server := f.pickServer(parent.server)
	parent.children[name] = &node{
		isDir:    true,
		modTime:  f.clock(),
		children: map[string]*node{},
		server:   server,
	}
	f.dirCount[server]++
	vclock.Charge(ctx, f.profile.IndexCommit)
	return nil
}

// WriteFile puts the content object into the object cloud and commits one
// index record.
func (f *FS) WriteFile(ctx context.Context, path string, data []byte) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("dpfs: /: %w", fsapi.ErrIsDir)
	}
	f.mu.Lock()
	parent, servers, name, err := f.resolveParent(p)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	f.chargeWalk(ctx, servers)
	existing := parent.children[name]
	if existing != nil && existing.isDir {
		f.mu.Unlock()
		return fmt.Errorf("dpfs: %s: %w", p, fsapi.ErrIsDir)
	}
	objKey := ""
	if existing != nil {
		objKey = existing.objKey
	} else {
		f.nextID++
		objKey = "dp|" + f.account + "|" + strconv.FormatInt(f.nextID, 10)
	}
	f.mu.Unlock()

	// Content streaming happens outside the index lock.
	if err := f.store.Put(ctx, objKey, data, nil); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent.children[name] = &node{
		size: int64(len(data)), modTime: f.clock(), objKey: objKey,
	}
	vclock.Charge(ctx, f.profile.IndexCommit)
	return nil
}

// ReadFile resolves through the index and fetches the content object.
func (f *FS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p == "/" {
		return nil, fmt.Errorf("dpfs: /: %w", fsapi.ErrIsDir)
	}
	objKey, err := f.fileObjKey(ctx, p)
	if err != nil {
		return nil, err
	}
	data, _, err := f.store.Get(ctx, objKey)
	if err != nil {
		return nil, fmt.Errorf("dpfs: %s: %w", p, fsapi.ErrNotFound)
	}
	return data, nil
}

// fileObjKey resolves a cleaned file path to its content object key
// under the read lock, charging the index walk.
func (f *FS) fileObjKey(ctx context.Context, p string) (string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, servers, err := f.resolve(p)
	if err != nil {
		return "", err
	}
	f.chargeWalk(ctx, servers)
	if n.isDir {
		return "", fmt.Errorf("dpfs: %s: %w", p, fsapi.ErrIsDir)
	}
	return n.objKey, nil
}

// Stat walks the index — usually one RPC, plus one per partition crossing.
func (f *FS) Stat(ctx context.Context, path string) (fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, servers, err := f.resolve(p)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	f.chargeWalk(ctx, servers)
	name := "/"
	if p != "/" {
		_, name, _ = fsapi.Split(p)
	}
	return fsapi.EntryInfo{Name: name, IsDir: n.isDir, Size: n.size, ModTime: n.modTime}, nil
}

// Remove deletes one file: an index commit plus the content object delete.
func (f *FS) Remove(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("dpfs: /: %w", fsapi.ErrIsDir)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, servers, name, err := f.resolveParent(p)
	if err != nil {
		return err
	}
	f.chargeWalk(ctx, servers)
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("dpfs: %s: %w", p, fsapi.ErrNotFound)
	}
	if n.isDir {
		return fmt.Errorf("dpfs: %s: %w", p, fsapi.ErrIsDir)
	}
	delete(parent.children, name)
	vclock.Charge(ctx, f.profile.IndexCommit)
	if err := f.store.Delete(ctx, n.objKey); err != nil && !errors.Is(err, objstore.ErrNotFound) {
		return err
	}
	return nil
}

// List reads the m child records from the directory's index server — the
// O(m) LIST of Table 1. Detail is free: the index stores metadata.
func (f *FS) List(ctx context.Context, path string, detail bool) ([]fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, servers, err := f.resolve(p)
	if err != nil {
		return nil, err
	}
	if !n.isDir {
		return nil, fmt.Errorf("dpfs: %s: %w", p, fsapi.ErrNotDir)
	}
	f.chargeWalk(ctx, servers)
	entries := make([]fsapi.EntryInfo, 0, len(n.children))
	for name, child := range n.children {
		e := fsapi.EntryInfo{Name: name, IsDir: child.isDir}
		if detail {
			e.Size = child.size
			e.ModTime = child.modTime
		}
		entries = append(entries, e)
	}
	vclock.Charge(ctx, time.Duration(len(entries))*f.profile.IndexRecord)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}

// Rmdir detaches the subtree pointer — one index commit, O(1). Content
// objects are reclaimed out of band (eagerly, uncharged).
func (f *FS) Rmdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("dpfs: /: %w", fsapi.ErrInvalidPath)
	}
	objKeys, err := f.detachSubtree(ctx, p)
	if err != nil {
		return err
	}
	for _, key := range objKeys {
		// Detached: once the rmdir tombstone landed, the orphan deletes must finish.
		gcCtx := vclock.With(context.WithoutCancel(ctx), nil)
		if err := f.store.Delete(gcCtx, key); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
	}
	return nil
}

// detachSubtree unlinks the directory at cleaned path p from its parent
// under the write lock and returns the content object keys to reclaim.
func (f *FS) detachSubtree(ctx context.Context, p string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, servers, name, err := f.resolveParent(p)
	if err != nil {
		return nil, err
	}
	f.chargeWalk(ctx, servers)
	n, ok := parent.children[name]
	if !ok {
		return nil, fmt.Errorf("dpfs: %s: %w", p, fsapi.ErrNotFound)
	}
	if !n.isDir {
		return nil, fmt.Errorf("dpfs: %s: %w", p, fsapi.ErrNotDir)
	}
	delete(parent.children, name)
	f.releaseDirs(n)
	vclock.Charge(ctx, f.profile.IndexCommit)
	var objKeys []string
	collectObjKeys(n, &objKeys)
	return objKeys, nil
}

func (f *FS) releaseDirs(n *node) {
	if !n.isDir {
		return
	}
	f.dirCount[n.server]--
	for _, c := range n.children {
		f.releaseDirs(c)
	}
}

func collectObjKeys(n *node, out *[]string) {
	if !n.isDir {
		*out = append(*out, n.objKey)
		return
	}
	for _, c := range n.children {
		collectObjKeys(c, out)
	}
}

// Move re-points the subtree: commits on the source and destination index
// servers — O(1) regardless of subtree size (Figure 7's flat curve).
func (f *FS) Move(ctx context.Context, src, dst string) error {
	srcP, dstP, err := fsapi.CleanMovePair(src, dst)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	srcParent, sServers, srcName, err := f.resolveParent(srcP)
	if err != nil {
		return err
	}
	f.chargeWalk(ctx, sServers)
	n, ok := srcParent.children[srcName]
	if !ok {
		return fmt.Errorf("dpfs: %s: %w", srcP, fsapi.ErrNotFound)
	}
	dstParent, dServers, dstName, err := f.resolveParent(dstP)
	if err != nil {
		return err
	}
	f.chargeWalk(ctx, dServers)
	if _, exists := dstParent.children[dstName]; exists {
		return fmt.Errorf("dpfs: %s: %w", dstP, fsapi.ErrExists)
	}
	delete(srcParent.children, srcName)
	dstParent.children[dstName] = n
	commits := 1
	if srcParent.server != dstParent.server {
		commits = 2
	}
	vclock.Charge(ctx, time.Duration(commits)*f.profile.IndexCommit)
	return nil
}

// Copy duplicates content objects one by one — O(n) (Figure 11).
func (f *FS) Copy(ctx context.Context, src, dst string) error {
	srcP, dstP, err := fsapi.CleanMovePair(src, dst)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	srcNode, sServers, err := f.resolve(srcP)
	if err != nil {
		return err
	}
	f.chargeWalk(ctx, sServers)
	dstParent, dServers, dstName, err := f.resolveParent(dstP)
	if err != nil {
		return err
	}
	f.chargeWalk(ctx, dServers)
	if _, exists := dstParent.children[dstName]; exists {
		return fmt.Errorf("dpfs: %s: %w", dstP, fsapi.ErrExists)
	}
	clone, err := f.copyNode(ctx, srcNode, dstParent.server)
	if err != nil {
		return err
	}
	dstParent.children[dstName] = clone
	vclock.Charge(ctx, f.profile.IndexCommit)
	return nil
}

// copyNode deep-copies a subtree, duplicating file content with the
// cloud's server-side copy primitive. Caller holds the write lock.
func (f *FS) copyNode(ctx context.Context, n *node, server int) (*node, error) {
	now := f.clock()
	if !n.isDir {
		f.nextID++
		objKey := "dp|" + f.account + "|" + strconv.FormatInt(f.nextID, 10)
		if err := f.store.Copy(ctx, n.objKey, objKey); err != nil {
			return nil, err
		}
		return &node{size: n.size, modTime: now, objKey: objKey}, nil
	}
	clone := &node{isDir: true, modTime: now, children: map[string]*node{}, server: server}
	f.dirCount[server]++
	for name, child := range n.children {
		cc, err := f.copyNode(ctx, child, server)
		if err != nil {
			return nil, err
		}
		clone.children[name] = cc
	}
	return clone, nil
}

// ServerLoads reports the number of directories held by each index server
// (exposed for the load-balancing tests and the ablation bench).
func (f *FS) ServerLoads() []int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]int, len(f.dirCount))
	copy(out, f.dirCount)
	return out
}
