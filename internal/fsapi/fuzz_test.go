package fsapi

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzClean: path cleaning must never panic; cleaned paths must be
// absolute, idempotent under Clean, and must survive Split+Join.
func FuzzClean(f *testing.F) {
	for _, seed := range []string{"/", "/a/b", "//", "/a//b", "/a/../b", "rel", "", "/ /", "/a/"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		p, err := Clean(path)
		if err != nil {
			return
		}
		if !strings.HasPrefix(p, "/") {
			t.Fatalf("cleaned %q not absolute", p)
		}
		p2, err := Clean(p)
		if err != nil || p2 != p {
			t.Fatalf("Clean not idempotent: %q -> %q (%v)", p, p2, err)
		}
		if p == "/" {
			return
		}
		dir, name, err := Split(p)
		if err != nil {
			t.Fatalf("Split(%q): %v", p, err)
		}
		if Join(dir, name) != p {
			t.Fatalf("Join(Split(%q)) = %q", p, Join(dir, name))
		}
		if Depth(p) < 1 {
			t.Fatalf("Depth(%q) = %d", p, Depth(p))
		}
	})
}

// FuzzCleanCompat: Clean accepts and rejects exactly what the
// split-and-join cleaner it replaced did, with the same output and the
// same error text.
func FuzzCleanCompat(f *testing.F) {
	for _, seed := range []string{"/", "/a/", "/a//", "//", "/a/./b", "/..", "a", "",
		"/a%2Fb", "/a\nb/", "/a b/c d", "/%/\n/ /"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		got, err := Clean(path)
		want, wantErr := splitJoinClean(path)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Clean(%q) = %q, %v; the split-and-join cleaner gave %q, %v", path, got, err, want, wantErr)
		}
	})
}

// splitJoinClean is Clean as it was before it validated in place, kept
// verbatim as FuzzCleanCompat's reference.
func splitJoinClean(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", fmt.Errorf("%w: %q must be absolute", ErrInvalidPath, path)
	}
	if path == "/" {
		return "/", nil
	}
	parts := strings.Split(path[1:], "/")
	out := make([]string, 0, len(parts))
	for i, p := range parts {
		if p == "" {
			// Allow exactly one trailing slash.
			if i == len(parts)-1 {
				continue
			}
			return "", fmt.Errorf("%w: %q has empty component", ErrInvalidPath, path)
		}
		if p == "." || p == ".." {
			return "", fmt.Errorf("%w: %q contains %q", ErrInvalidPath, path, p)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return "/", nil
	}
	return "/" + strings.Join(out, "/"), nil
}
