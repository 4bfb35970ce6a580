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
// namespace. The root resolves to a directory tuple naming the root
// namespace, with no parent.
type resolved struct {
	path     string     // the cleaned path
	parentNS string     // namespace holding the entry's tuple
	tuple    core.Tuple // the entry's NameRing tuple
}

// resolve walks the path "level by level along d NameRings" (§3.2): each
// component is looked up in the NameRing located by the namespace learned
// from the previous level, costing one ring consult per level — the O(d)
// regular access method. path must already be cleaned.
func (m *Middleware) resolve(ctx context.Context, account, path string) (resolved, error) {
	ns, err := m.rootNS(ctx, account)
	if err != nil {
		return resolved{}, err
	}
	if path == "/" {
		return resolved{path: path, tuple: core.Tuple{Dir: true, NS: ns}}, nil
	}
	for rest := path[1:]; ; {
		comp, tail, more := strings.Cut(rest, "/")
		t, ok, err := m.lookupChild(ctx, account, ns, comp)
		if err != nil {
			return resolved{}, err
		}
		if !ok || t.Deleted {
			return resolved{}, fmt.Errorf("h2fs: %s: %w", path, fsapi.ErrNotFound)
		}
		if !more {
			return resolved{path: path, parentNS: ns, tuple: t}, nil
		}
		if !t.Dir {
			return resolved{}, fmt.Errorf("h2fs: %s: %w", path, fsapi.ErrNotDir)
		}
		ns, rest = t.NS, tail
	}
}

// resolveDir resolves a cleaned path that must name a directory and
// returns its namespace.
func (m *Middleware) resolveDir(ctx context.Context, account, path string) (string, error) {
	res, err := m.resolve(ctx, account, path)
	if err != nil {
		return "", err
	}
	if !res.tuple.Dir {
		return "", fmt.Errorf("h2fs: %s: %w", path, fsapi.ErrNotDir)
	}
	return res.tuple.NS, nil
}

// file cleans path and resolves it to a file: the root and directories
// are refused with ErrIsDir, the root before anything is resolved.
func (m *Middleware) file(ctx context.Context, account, path string) (resolved, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return resolved{}, err
	}
	if p == "/" {
		return resolved{}, fmt.Errorf("h2fs: /: %w", fsapi.ErrIsDir)
	}
	res, err := m.resolve(ctx, account, p)
	if err == nil && res.tuple.Dir {
		err = fmt.Errorf("h2fs: %s: %w", p, fsapi.ErrIsDir)
	}
	return res, err
}

// target cleans the path an entry is to be created at, resolves its
// parent directory and looks the name up there. live reports whether a
// live entry holds the name, whose tuple res then carries; otherwise the
// tuple carries the name alone. rootErr is what "/" is refused with; nil
// leaves the root to fsapi.Split, which refuses it as having no parent.
func (m *Middleware) target(ctx context.Context, account, path string, rootErr error) (res resolved, live bool, err error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return resolved{}, false, err
	}
	if p == "/" && rootErr != nil {
		return resolved{}, false, fmt.Errorf("h2fs: /: %w", rootErr)
	}
	dir, name, err := fsapi.Split(p)
	if err != nil {
		return resolved{}, false, err
	}
	parentNS, err := m.resolveDir(ctx, account, dir)
	if err != nil {
		return resolved{}, false, err
	}
	t, ok, err := m.lookupChild(ctx, account, parentNS, name)
	if err != nil {
		return resolved{}, false, err
	}
	if live = ok && !t.Deleted; !live {
		t = core.Tuple{Name: name}
	}
	return resolved{path: p, parentNS: parentNS, tuple: t}, live, nil
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
