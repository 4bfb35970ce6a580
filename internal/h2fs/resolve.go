package h2fs

import (
	"context"
	"fmt"
	"strings"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// resolved is the outcome of the regular (full-path) file access algorithm
// of §3.2: the entry's tuple in its parent's NameRing plus the parent's
// namespace. The root directory resolves with isRoot set and the root
// namespace in ns.
type resolved struct {
	isRoot   bool
	parentNS string     // namespace holding the entry's tuple
	tuple    core.Tuple // the entry's NameRing tuple
}

// ns returns the namespace of the resolved entry itself (directories
// only).
func (r resolved) ns(rootNS string) string {
	if r.isRoot {
		return rootNS
	}
	return r.tuple.NS
}

// resolve walks the path "level by level along d NameRings" (§3.2): each
// component is looked up in the NameRing located by the namespace learned
// from the previous level, costing one ring consult per level — the O(d)
// regular access method. path must already be cleaned.
func (m *Middleware) resolve(ctx context.Context, account, path string) (resolved, string, error) {
	rootNS, err := m.rootNS(ctx, account)
	if err != nil {
		return resolved{}, "", err
	}
	if path == "/" {
		return resolved{isRoot: true}, rootNS, nil
	}
	for ns, rest := rootNS, path[1:]; ; {
		comp, tail, more := strings.Cut(rest, "/")
		t, ok, err := m.lookupChild(ctx, account, ns, comp)
		if err != nil {
			return resolved{}, "", err
		}
		if !ok || t.Deleted {
			return resolved{}, "", fmt.Errorf("h2fs: %s: %w", path, fsapi.ErrNotFound)
		}
		if !more {
			return resolved{parentNS: ns, tuple: t}, rootNS, nil
		}
		if !t.Dir {
			return resolved{}, "", fmt.Errorf("h2fs: %s: %w", path, fsapi.ErrNotDir)
		}
		ns, rest = t.NS, tail
	}
}

// resolveDir resolves a cleaned path that must name a directory and
// returns its namespace.
func (m *Middleware) resolveDir(ctx context.Context, account, path string) (string, error) {
	res, rootNS, err := m.resolve(ctx, account, path)
	if err != nil {
		return "", err
	}
	if !res.isRoot && !res.tuple.Dir {
		return "", fmt.Errorf("h2fs: %s: %w", path, fsapi.ErrNotDir)
	}
	return res.ns(rootNS), nil
}

// ResolveNS resolves a directory path to its namespace UUID. Internal
// components (and power clients) use it once, then address the
// directory's children with O(1) relative accesses.
func (m *Middleware) ResolveNS(ctx context.Context, account, path string) (string, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return "", err
	}
	return m.resolveDir(ctx, account, p)
}

// AccessRelative is the quick file access method of §3.2: a namespace-
// decorated relative path like "N02::file1" hashes straight to the object
// in O(1), bypassing the level-by-level walk. It is intended for the
// system's internal operations.
func (m *Middleware) AccessRelative(ctx context.Context, account, rel string) ([]byte, objstore.ObjectInfo, error) {
	ns, name, ok := strings.Cut(rel, "::")
	if !ok || ns == "" || !core.ValidChildName(name) {
		return nil, objstore.ObjectInfo{}, fmt.Errorf("h2fs: relative path %q: %w", rel, fsapi.ErrInvalidPath)
	}
	return m.store.Get(ctx, core.ChildKey(account, ns, name))
}
