// Package casfs implements the Content Addressable Storage baseline of
// the paper's §2: a Venti/Foundation-style store where every block is
// located by the hash of its content, extended with Camlistore-style
// pointer blocks that pack child hashes into directory blocks to form a
// multi-layer hierarchical index.
//
// Content addressing makes access by hash O(1) and deduplicates identical
// content for free, but no block can be modified in place: any mutation
// re-hashes the changed directory block and every pointer block above it
// up to the root, which is why Table 1 charges directory operations O(N)-
// class costs.
package casfs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

const dirMagic = "CASD/1"

// centry is one child reference inside a pointer block.
type centry struct {
	hash    string
	isDir   bool
	size    int64
	modNano int64
}

// FS is one account's content-addressed filesystem.
type FS struct {
	store   objstore.Store
	profile cluster.CostProfile
	account string
	clock   func() time.Time

	mu       sync.Mutex
	rootHash string
}

var _ fsapi.FileSystem = (*FS)(nil)

// New returns an empty content-addressed filesystem for one account.
func New(store objstore.Store, profile cluster.CostProfile, account string, clock func() time.Time) *FS {
	if clock == nil {
		clock = time.Now
	}
	return &FS{
		store:   store,
		profile: profile,
		account: account,
		clock:   clock,
	}
}

func (f *FS) blockKey(hash string) string { return "cas|" + f.account + "|" + hash }
func (f *FS) rootKey() string             { return "cas|" + f.account + "|ROOT" }

func encodeDirBlock(entries map[string]centry) []byte {
	names := make([]string, 0, len(entries))
	// A line adds to its name and hash two quotes, four tabs, the kind
	// byte, a newline and two int64s of at most 20 bytes each.
	size := len(dirMagic) + 1
	for n, e := range entries {
		names = append(names, n)
		size += len(n) + len(e.hash) + 48
	}
	sort.Strings(names)
	b := make([]byte, 0, size)
	b = append(b, dirMagic...)
	b = append(b, '\n')
	for _, n := range names {
		e := entries[n]
		kind := byte('F')
		if e.isDir {
			kind = 'D'
		}
		b = strconv.AppendQuote(b, n)
		b = append(b, '\t')
		b = append(b, e.hash...)
		b = append(b, '\t', kind, '\t')
		b = strconv.AppendInt(b, e.size, 10)
		b = append(b, '\t')
		b = strconv.AppendInt(b, e.modNano, 10)
		b = append(b, '\n')
	}
	return b
}

func decodeDirBlock(data []byte) (map[string]centry, error) {
	line, rest, _ := strings.Cut(string(data), "\n")
	if line != dirMagic {
		return nil, fmt.Errorf("casfs: not a pointer block")
	}
	out := make(map[string]centry, strings.Count(rest, "\n"))
	var fields [5]string
	for rest != "" {
		line, rest, _ = strings.Cut(rest, "\n")
		if line == "" {
			continue
		}
		if !cutFields(line, fields[:]) {
			return nil, fmt.Errorf("casfs: malformed pointer entry %q", line)
		}
		name, err := strconv.Unquote(fields[0])
		if err != nil {
			return nil, err
		}
		size, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return nil, err
		}
		mod, err := strconv.ParseInt(fields[4], 10, 64)
		if err != nil {
			return nil, err
		}
		out[name] = centry{hash: fields[1], isDir: fields[2] == "D", size: size, modNano: mod}
	}
	return out, nil
}

// cutFields splits line at its tabs into dst and reports whether it held
// exactly len(dst) fields.
func cutFields(line string, dst []string) bool {
	last := len(dst) - 1
	for i := 0; i < last; i++ {
		var ok bool
		if dst[i], line, ok = strings.Cut(line, "\t"); !ok {
			return false
		}
	}
	dst[last] = line
	return strings.IndexByte(line, '\t') < 0
}

// putBlock stores a block under its content hash and returns the hash.
// Identical content lands on the same key: deduplication for free.
func (f *FS) putBlock(ctx context.Context, data []byte) (string, error) {
	hash := objstore.ETag(data)
	if err := f.store.Put(ctx, f.blockKey(hash), data, nil); err != nil {
		return "", err
	}
	return hash, nil
}

func (f *FS) readDirBlock(ctx context.Context, hash string) (map[string]centry, error) {
	data, _, err := f.store.Get(ctx, f.blockKey(hash))
	if err != nil {
		return nil, err
	}
	return decodeDirBlock(data)
}

// ensureRoot creates the empty root pointer block on first use. Caller
// holds f.mu.
func (f *FS) ensureRoot(ctx context.Context) error {
	if f.rootHash != "" {
		return nil
	}
	hash, err := f.putBlock(ctx, encodeDirBlock(nil))
	if err != nil {
		return err
	}
	f.rootHash = hash
	return f.store.Put(ctx, f.rootKey(), []byte(hash), nil)
}

// level is one step of a resolved pointer-block chain.
type level struct {
	entries map[string]centry
	child   string // name of the next component inside entries
}

// resolveChain loads the pointer blocks from the root down to the parent
// of the last path component. comps must be non-empty; the returned chain
// has one level per component, where chain[i].entries is the block that
// should contain comps[i]. Caller holds f.mu.
func (f *FS) resolveChain(ctx context.Context, comps []string) ([]level, error) {
	if err := f.ensureRoot(ctx); err != nil {
		return nil, err
	}
	chain := make([]level, 0, len(comps))
	hash := f.rootHash
	for i, comp := range comps {
		entries, err := f.readDirBlock(ctx, hash)
		if err != nil {
			return nil, err
		}
		chain = append(chain, level{entries: entries, child: comp})
		if i == len(comps)-1 {
			break
		}
		e, ok := entries[comp]
		if !ok {
			return nil, fmt.Errorf("casfs: %s: %w", comp, fsapi.ErrNotFound)
		}
		if !e.isDir {
			return nil, fmt.Errorf("casfs: %s: %w", comp, fsapi.ErrNotDir)
		}
		hash = e.hash
	}
	return chain, nil
}

// rebuildChain writes the mutated bottom block and re-hashes every pointer
// block up to the root — the content-addressing tax on mutation. Caller
// holds f.mu; chain[len-1].entries must already hold the mutation.
func (f *FS) rebuildChain(ctx context.Context, chain []level) error {
	now := f.clock().UnixNano()
	childHash := ""
	for i := len(chain) - 1; i >= 0; i-- {
		if i < len(chain)-1 {
			// Point this block at the rewritten child block.
			e := chain[i].entries[chain[i].child]
			e.hash = childHash
			e.modNano = now
			chain[i].entries[chain[i].child] = e
		}
		hash, err := f.putBlock(ctx, encodeDirBlock(chain[i].entries))
		if err != nil {
			return err
		}
		childHash = hash
	}
	f.rootHash = childHash
	return f.store.Put(ctx, f.rootKey(), []byte(childHash), nil)
}

// Mkdir adds a pointer to a fresh empty block and rebuilds the chain.
func (f *FS) Mkdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("casfs: /: %w", fsapi.ErrExists)
	}
	comps, _ := fsapi.Components(p)
	f.mu.Lock()
	defer f.mu.Unlock()
	chain, err := f.resolveChain(ctx, comps)
	if err != nil {
		return err
	}
	leaf := &chain[len(chain)-1]
	if _, ok := leaf.entries[leaf.child]; ok {
		return fmt.Errorf("casfs: %s: %w", p, fsapi.ErrExists)
	}
	emptyHash, err := f.putBlock(ctx, encodeDirBlock(nil))
	if err != nil {
		return err
	}
	leaf.entries[leaf.child] = centry{hash: emptyHash, isDir: true, modNano: f.clock().UnixNano()}
	return f.rebuildChain(ctx, chain)
}

// WriteFile stores the content block by hash and rebuilds the chain.
func (f *FS) WriteFile(ctx context.Context, path string, data []byte) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("casfs: /: %w", fsapi.ErrIsDir)
	}
	comps, _ := fsapi.Components(p)
	f.mu.Lock()
	defer f.mu.Unlock()
	chain, err := f.resolveChain(ctx, comps)
	if err != nil {
		return err
	}
	leaf := &chain[len(chain)-1]
	if e, ok := leaf.entries[leaf.child]; ok && e.isDir {
		return fmt.Errorf("casfs: %s: %w", p, fsapi.ErrIsDir)
	}
	hash, err := f.putBlock(ctx, data)
	if err != nil {
		return err
	}
	leaf.entries[leaf.child] = centry{hash: hash, size: int64(len(data)), modNano: f.clock().UnixNano()}
	return f.rebuildChain(ctx, chain)
}

// lookup resolves a cleaned non-root path to its entry. Caller holds f.mu.
func (f *FS) lookup(ctx context.Context, p string) (centry, error) {
	comps, _ := fsapi.Components(p)
	chain, err := f.resolveChain(ctx, comps)
	if err != nil {
		return centry{}, err
	}
	leaf := chain[len(chain)-1]
	e, ok := leaf.entries[leaf.child]
	if !ok {
		return centry{}, fmt.Errorf("casfs: %s: %w", p, fsapi.ErrNotFound)
	}
	return e, nil
}

// ReadFile fetches the content block named by the entry's hash.
func (f *FS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p == "/" {
		return nil, fmt.Errorf("casfs: /: %w", fsapi.ErrIsDir)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e, err := f.lookup(ctx, p)
	if err != nil {
		return nil, err
	}
	if e.isDir {
		return nil, fmt.Errorf("casfs: %s: %w", p, fsapi.ErrIsDir)
	}
	data, _, err := f.store.Get(ctx, f.blockKey(e.hash))
	if err != nil {
		return nil, fmt.Errorf("casfs: %s: %w", p, fsapi.ErrNotFound)
	}
	return data, nil
}

// Stat resolves the path through the pointer blocks.
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
	e, err := f.lookup(ctx, p)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	_, name, _ := fsapi.Split(p)
	return fsapi.EntryInfo{Name: name, IsDir: e.isDir, Size: e.size, ModTime: time.Unix(0, e.modNano)}, nil
}

// Remove deletes the entry and rebuilds the chain; the content block
// becomes unreferenced garbage.
func (f *FS) Remove(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	comps, compErr := fsapi.Components(p)
	if compErr != nil || len(comps) == 0 {
		return fmt.Errorf("casfs: %s: %w", p, fsapi.ErrIsDir)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	chain, err := f.resolveChain(ctx, comps)
	if err != nil {
		return err
	}
	leaf := &chain[len(chain)-1]
	e, ok := leaf.entries[leaf.child]
	if !ok {
		return fmt.Errorf("casfs: %s: %w", p, fsapi.ErrNotFound)
	}
	if e.isDir {
		return fmt.Errorf("casfs: %s: %w", p, fsapi.ErrIsDir)
	}
	delete(leaf.entries, leaf.child)
	return f.rebuildChain(ctx, chain)
}

// List reads the directory's pointer block — O(m), with metadata free.
func (f *FS) List(ctx context.Context, path string, detail bool) ([]fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var hash string
	if p == "/" {
		if err := f.ensureRoot(ctx); err != nil {
			return nil, err
		}
		hash = f.rootHash
	} else {
		e, err := f.lookup(ctx, p)
		if err != nil {
			return nil, err
		}
		if !e.isDir {
			return nil, fmt.Errorf("casfs: %s: %w", p, fsapi.ErrNotDir)
		}
		hash = e.hash
	}
	entries, err := f.readDirBlock(ctx, hash)
	if err != nil {
		return nil, err
	}
	out := make([]fsapi.EntryInfo, 0, len(entries))
	for name, e := range entries {
		info := fsapi.EntryInfo{Name: name, IsDir: e.isDir}
		if detail {
			info.Size = e.size
			info.ModTime = time.Unix(0, e.modNano)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Rmdir detaches the subtree's pointer; the subtree blocks become garbage.
func (f *FS) Rmdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("casfs: /: %w", fsapi.ErrInvalidPath)
	}
	comps, _ := fsapi.Components(p)
	f.mu.Lock()
	defer f.mu.Unlock()
	chain, err := f.resolveChain(ctx, comps)
	if err != nil {
		return err
	}
	leaf := &chain[len(chain)-1]
	e, ok := leaf.entries[leaf.child]
	if !ok {
		return fmt.Errorf("casfs: %s: %w", p, fsapi.ErrNotFound)
	}
	if !e.isDir {
		return fmt.Errorf("casfs: %s: %w", p, fsapi.ErrNotDir)
	}
	delete(leaf.entries, leaf.child)
	return f.rebuildChain(ctx, chain)
}

// Move detaches the subtree pointer and reattaches it elsewhere; the
// subtree's blocks are shared, only the two chains are rebuilt.
func (f *FS) Move(ctx context.Context, src, dst string) error {
	return f.relink(ctx, src, dst, true)
}

// Copy points a second entry at the same subtree hash — content blocks
// deduplicate perfectly under content addressing.
func (f *FS) Copy(ctx context.Context, src, dst string) error {
	return f.relink(ctx, src, dst, false)
}

func (f *FS) relink(ctx context.Context, src, dst string, unlinkSrc bool) error {
	srcP, err := fsapi.Clean(src)
	if err != nil {
		return err
	}
	dstP, err := fsapi.Clean(dst)
	if err != nil {
		return err
	}
	if srcP == "/" {
		return fmt.Errorf("casfs: cannot move or copy /: %w", fsapi.ErrInvalidPath)
	}
	if fsapi.IsAncestor(srcP, dstP) {
		return fmt.Errorf("casfs: %s is inside %s: %w", dstP, srcP, fsapi.ErrInvalidPath)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	srcEntry, err := f.lookup(ctx, srcP)
	if err != nil {
		return err
	}
	if _, err := f.lookup(ctx, dstP); err == nil {
		return fmt.Errorf("casfs: %s: %w", dstP, fsapi.ErrExists)
	}
	// Unlink first so the destination chain sees the post-removal root.
	if unlinkSrc {
		comps, _ := fsapi.Components(srcP)
		chain, err := f.resolveChain(ctx, comps)
		if err != nil {
			return err
		}
		delete(chain[len(chain)-1].entries, chain[len(chain)-1].child)
		if err := f.rebuildChain(ctx, chain); err != nil {
			return err
		}
	}
	dstComps, _ := fsapi.Components(dstP)
	chain, err := f.resolveChain(ctx, dstComps)
	if err != nil {
		return err
	}
	leaf := &chain[len(chain)-1]
	if _, ok := leaf.entries[leaf.child]; ok {
		return fmt.Errorf("casfs: %s: %w", dstP, fsapi.ErrExists)
	}
	srcEntry.modNano = f.clock().UnixNano()
	leaf.entries[leaf.child] = srcEntry
	return f.rebuildChain(ctx, chain)
}
