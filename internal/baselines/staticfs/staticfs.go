// Package staticfs implements the Static Partition baseline of the
// paper's §2: the AFS model in which the namespace is split across a
// fixed set of servers once and forever.
//
// Each top-level directory is assigned to a partition server by a static
// hash of its name; the server owns the entire subtree. Operations within
// one partition are as fast as a single index server, which is why AFS is
// popular for its simplicity. But the assignment never adapts: operations
// that span partitions (MOVE or COPY between differently-assigned
// top-level trees) must deep-copy every file through the client — the
// "negative effect on filesystem operations with different partitions
// involved" that rules out scalability in Table 1.
package staticfs

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/h2cloud/h2cloud/internal/baselines/sidxfs"
	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// FS is one account's statically partitioned filesystem.
type FS struct {
	parts []*sidxfs.FS
}

var _ fsapi.FileSystem = (*FS)(nil)

// New returns a static-partition filesystem with the given number of
// partition servers (default 4).
func New(store objstore.Store, profile cluster.CostProfile, account string, clock func() time.Time, servers int) *FS {
	if servers <= 0 {
		servers = 4
	}
	parts := make([]*sidxfs.FS, servers)
	for i := range parts {
		parts[i] = sidxfs.New(store, profile, account+"-part"+strconv.Itoa(i), clock)
	}
	return &FS{parts: parts}
}

// partition statically maps a top-level directory name to its server.
func (f *FS) partition(topName string) *sidxfs.FS {
	h := fnv.New32a()
	h.Write([]byte(topName))
	return f.parts[h.Sum32()%uint32(len(f.parts))]
}

// route picks the partition server owning a cleaned non-root path.
func (f *FS) route(p string) *sidxfs.FS {
	top := p[1:]
	if i := strings.IndexByte(top, '/'); i >= 0 {
		top = top[:i]
	}
	return f.partition(top)
}

// Mkdir delegates to the owning partition.
func (f *FS) Mkdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("staticfs: /: %w", fsapi.ErrExists)
	}
	return f.route(p).Mkdir(ctx, p)
}

// WriteFile delegates to the owning partition.
func (f *FS) WriteFile(ctx context.Context, path string, data []byte) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("staticfs: /: %w", fsapi.ErrIsDir)
	}
	return f.route(p).WriteFile(ctx, p, data)
}

// ReadFile delegates to the owning partition.
func (f *FS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p == "/" {
		return nil, fmt.Errorf("staticfs: /: %w", fsapi.ErrIsDir)
	}
	return f.route(p).ReadFile(ctx, p)
}

// Stat delegates to the owning partition; the root is synthesized.
func (f *FS) Stat(ctx context.Context, path string) (fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	if p == "/" {
		return fsapi.EntryInfo{Name: "/", IsDir: true}, nil
	}
	return f.route(p).Stat(ctx, p)
}

// Remove delegates to the owning partition.
func (f *FS) Remove(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("staticfs: /: %w", fsapi.ErrIsDir)
	}
	return f.route(p).Remove(ctx, p)
}

// List delegates to the owning partition; listing the root queries every
// partition server and merges the results.
func (f *FS) List(ctx context.Context, path string, detail bool) ([]fsapi.EntryInfo, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return nil, err
	}
	if p != "/" {
		return f.route(p).List(ctx, p, detail)
	}
	var out []fsapi.EntryInfo
	for _, part := range f.parts {
		entries, err := part.List(ctx, "/", detail)
		if err != nil {
			return nil, err
		}
		out = append(out, entries...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Rmdir delegates to the owning partition.
func (f *FS) Rmdir(ctx context.Context, path string) error {
	p, err := fsapi.Clean(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("staticfs: /: %w", fsapi.ErrInvalidPath)
	}
	return f.route(p).Rmdir(ctx, p)
}

// Move is an O(1) pointer update within one partition; across partitions
// it degrades to a full deep copy plus delete — the static-assignment
// penalty.
func (f *FS) Move(ctx context.Context, src, dst string) error {
	srcP, dstP, err := fsapi.CleanMovePair(src, dst)
	if err != nil {
		return err
	}
	srcFS, dstFS := f.route(srcP), f.route(dstP)
	if srcFS == dstFS {
		return srcFS.Move(ctx, srcP, dstP)
	}
	if err := f.crossCopy(ctx, srcFS, srcP, dstFS, dstP); err != nil {
		return err
	}
	info, err := srcFS.Stat(ctx, srcP)
	if err != nil {
		return err
	}
	if info.IsDir {
		return srcFS.Rmdir(ctx, srcP)
	}
	return srcFS.Remove(ctx, srcP)
}

// Copy is delegated within a partition and deep-copied across partitions.
func (f *FS) Copy(ctx context.Context, src, dst string) error {
	srcP, dstP, err := fsapi.CleanMovePair(src, dst)
	if err != nil {
		return err
	}
	srcFS, dstFS := f.route(srcP), f.route(dstP)
	if srcFS == dstFS {
		return srcFS.Copy(ctx, srcP, dstP)
	}
	return f.crossCopy(ctx, srcFS, srcP, dstFS, dstP)
}

// crossCopy replays a subtree from one partition server into another
// through the client: every file's content crosses the wire — O(n) with
// full data movement.
func (f *FS) crossCopy(ctx context.Context, srcFS *sidxfs.FS, srcP string, dstFS *sidxfs.FS, dstP string) error {
	if _, err := dstFS.Stat(ctx, dstP); err == nil {
		return fmt.Errorf("staticfs: %s: %w", dstP, fsapi.ErrExists)
	} else if !errors.Is(err, fsapi.ErrNotFound) {
		return err
	}
	// The destination parent must exist on the destination partition.
	if dir, _, err := fsapi.Split(dstP); err == nil && dir != "/" {
		info, err := dstFS.Stat(ctx, dir)
		if err != nil {
			return err
		}
		if !info.IsDir {
			return fmt.Errorf("staticfs: %s: %w", dir, fsapi.ErrNotDir)
		}
	}
	info, err := srcFS.Stat(ctx, srcP)
	if err != nil {
		return err
	}
	if !info.IsDir {
		data, err := srcFS.ReadFile(ctx, srcP)
		if err != nil {
			return err
		}
		return dstFS.WriteFile(ctx, dstP, data)
	}
	if err := dstFS.Mkdir(ctx, dstP); err != nil {
		return err
	}
	entries, err := srcFS.List(ctx, srcP, false)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := f.crossCopy(ctx, srcFS, fsapi.Join(srcP, e.Name), dstFS, fsapi.Join(dstP, e.Name)); err != nil {
			return err
		}
	}
	return nil
}

// Partitions reports how many top-level names map to each partition
// server among the given names (for tests and the ablation bench).
func (f *FS) Partitions(topNames []string) []int {
	counts := make([]int, len(f.parts))
	for _, n := range topNames {
		h := fnv.New32a()
		h.Write([]byte(n))
		counts[h.Sum32()%uint32(len(f.parts))]++
	}
	return counts
}
