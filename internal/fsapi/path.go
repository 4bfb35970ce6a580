package fsapi

import (
	"fmt"
	"strings"
)

// Clean validates and canonicalizes an absolute slash path: it must start
// with "/", contain no empty, "." or ".." components, and is returned
// without a trailing slash ("/" stays "/"). Every filesystem operation
// cleans its path first, so a valid path is checked in place and returned
// as is (or minus its one trailing slash): cleaning allocates nothing.
func Clean(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", fmt.Errorf("%w: %q must be absolute", ErrInvalidPath, path)
	}
	if path == "/" {
		return "/", nil
	}
	body := strings.TrimSuffix(path[1:], "/") // exactly one trailing slash is allowed
	for rest, more := body, true; more; {
		var p string
		p, rest, more = strings.Cut(rest, "/")
		if p == "" {
			return "", fmt.Errorf("%w: %q has empty component", ErrInvalidPath, path)
		}
		if p == "." || p == ".." {
			return "", fmt.Errorf("%w: %q contains %q", ErrInvalidPath, path, p)
		}
	}
	return path[:1+len(body)], nil
}

// Split cleans path and returns its parent directory and base name.
// Splitting "/" returns an error: the root has no parent.
func Split(path string) (dir, name string, err error) {
	p, err := Clean(path)
	if err != nil {
		return "", "", err
	}
	if p == "/" {
		return "", "", fmt.Errorf("%w: cannot split root", ErrInvalidPath)
	}
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/", p[1:], nil
	}
	return p[:i], p[i+1:], nil
}

// Components cleans path and returns its path elements; the root yields an
// empty slice.
func Components(path string) ([]string, error) {
	p, err := Clean(path)
	if err != nil {
		return nil, err
	}
	if p == "/" {
		return nil, nil
	}
	return strings.Split(p[1:], "/"), nil
}

// Join concatenates a cleaned directory path with a base name.
func Join(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// Depth reports the directory depth d of a cleaned path: "/" is 0,
// "/home" is 1, "/home/ubuntu/file1" is 3 (matching the paper's example
// in §3.2 where /home/ubuntu/file1 has d = 3).
func Depth(path string) int {
	if path == "/" || path == "" {
		return 0
	}
	return strings.Count(path, "/")
}

// IsAncestor reports whether anc is a strict ancestor directory of path
// (both must be cleaned).
func IsAncestor(anc, path string) bool {
	if anc == path {
		return false
	}
	if anc == "/" {
		return strings.HasPrefix(path, "/") && path != "/"
	}
	return strings.HasPrefix(path, anc+"/")
}

// CleanMovePair cleans the source and destination of a MOVE or COPY and
// refuses the pairs no filesystem can carry out: the root as the source,
// and a destination inside the source.
func CleanMovePair(src, dst string) (srcP, dstP string, err error) {
	if srcP, err = Clean(src); err != nil {
		return "", "", err
	}
	if dstP, err = Clean(dst); err != nil {
		return "", "", err
	}
	if srcP == "/" {
		return "", "", fmt.Errorf("%w: cannot move or copy /", ErrInvalidPath)
	}
	if IsAncestor(srcP, dstP) {
		return "", "", fmt.Errorf("%w: %s is inside %s", ErrInvalidPath, dstP, srcP)
	}
	return srcP, dstP, nil
}
