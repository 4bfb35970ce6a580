package h2fs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/h2cloud/h2cloud/internal/fsapi"
)

// TestOperationErrors pins the error every operation returns for the
// inputs its path handling must refuse: the root, a file where a
// directory is needed and the reverse, a missing parent, a live
// destination, a malformed path and a negative offset. Each row names
// the errors.Is kind and the exact message, so it also pins which error
// wins when two apply (a missing source beats a live destination, the
// root beats a negative offset, a negative offset beats a missing file).
func TestOperationErrors(t *testing.T) {
	ctx := context.Background()
	m := newMW(t, newCluster(t), 1)
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	mustNoErr(t, m.Mkdir(ctx, "alice", "/d"))
	mustNoErr(t, m.WriteFile(ctx, "alice", "/f", []byte("x")))
	mustNoErr(t, m.WriteFile(ctx, "alice", "/d/g", []byte("y")))

	const (
		exists  = "h2fs: %s: fs: already exists"
		isDir   = "h2fs: %s: fs: is a directory"
		notDir  = "h2fs: %s: fs: not a directory"
		missing = "h2fs: %s: fs: not found"
		ghost   = `h2fs: account "ghost": fs: not found`
		negOff  = "h2fs: negative offset: fs: invalid path"
	)
	// MOVE and COPY rows name the destination; their source is /d/g.
	type op func(account, path string) error
	ops := map[string]op{
		"Mkdir": func(a, p string) error { return m.Mkdir(ctx, a, p) },
		"WriteFile": func(a, p string) error {
			return m.WriteFile(ctx, a, p, []byte("z"))
		},
		"WriteFileChunked": func(a, p string) error {
			return m.WriteFileChunked(ctx, a, p, bytes.NewReader([]byte("zz")), 1)
		},
		"ReadFile": func(a, p string) error { _, err := m.ReadFile(ctx, a, p); return err },
		"ReadFileRange": func(a, p string) error {
			_, err := m.ReadFileRange(ctx, a, p, 0, -1)
			return err
		},
		"Remove": func(a, p string) error { return m.Remove(ctx, a, p) },
		"Rmdir":  func(a, p string) error { return m.Rmdir(ctx, a, p) },
		"Stat":   func(a, p string) error { _, err := m.Stat(ctx, a, p); return err },
		"List":   func(a, p string) error { _, err := m.List(ctx, a, p, true); return err },
		"ListPage": func(a, p string) error {
			_, _, err := m.ListPage(ctx, a, p, false, "", 1)
			return err
		},
		"ResolveNS": func(a, p string) error { _, err := m.ResolveNS(ctx, a, p); return err },
		"Move":      func(a, p string) error { return m.Move(ctx, a, "/d/g", p) },
		"Copy":      func(a, p string) error { return m.Copy(ctx, a, "/d/g", p) },
	}
	type row struct {
		op, account, path string
		kind              error // nil: the call must succeed
		msg               string
	}
	var rows []row
	add := func(names []string, account, path string, kind error, msg string) {
		for _, n := range names {
			rows = append(rows, row{n, account, path, kind, msg})
		}
	}
	creates := []string{"WriteFile", "WriteFileChunked"}
	reads := []string{"ReadFile", "ReadFileRange", "Remove"}
	lists := []string{"List", "ListPage", "ResolveNS"}
	moves := []string{"Move", "Copy"}
	all := append(append(append(append([]string{"Mkdir", "Rmdir", "Stat"}, creates...), reads...), lists...), moves...)

	// The root.
	add([]string{"Mkdir"}, "alice", "/", fsapi.ErrExists, fmt.Sprintf(exists, "/"))
	add(append(creates, reads...), "alice", "/", fsapi.ErrIsDir, fmt.Sprintf(isDir, "/"))
	add([]string{"Rmdir"}, "alice", "/", fsapi.ErrInvalidPath, "h2fs: cannot remove /: fs: invalid path")
	add(moves, "alice", "/", fsapi.ErrInvalidPath, "fs: invalid path: cannot split root")
	add(append([]string{"Stat"}, lists...), "alice", "/", nil, "")
	add(append([]string{"Mkdir", "Stat", "ReadFile"}, lists...), "ghost", "/x", fsapi.ErrNotFound, ghost)
	add(append([]string{"Stat"}, lists...), "ghost", "/", fsapi.ErrNotFound, ghost)

	// A file where a directory is needed.
	add(append([]string{"Mkdir", "Move", "Copy"}, creates...), "alice", "/f/x", fsapi.ErrNotDir, fmt.Sprintf(notDir, "/f"))
	add(append(append([]string{"Rmdir", "Stat"}, reads...), lists...), "alice", "/f/x", fsapi.ErrNotDir, fmt.Sprintf(notDir, "/f/x"))
	add(append([]string{"Rmdir"}, lists...), "alice", "/f", fsapi.ErrNotDir, fmt.Sprintf(notDir, "/f"))

	// A directory where a file is needed.
	add(append(creates, reads...), "alice", "/d", fsapi.ErrIsDir, fmt.Sprintf(isDir, "/d"))
	add(append(creates, reads...), "alice", "/d/", fsapi.ErrIsDir, fmt.Sprintf(isDir, "/d"))

	// A missing parent.
	add(append([]string{"Mkdir", "Move", "Copy"}, creates...), "alice", "/nope/x", fsapi.ErrNotFound, fmt.Sprintf(missing, "/nope"))
	add(append(append([]string{"Rmdir", "Stat"}, reads...), lists...), "alice", "/nope/x", fsapi.ErrNotFound, fmt.Sprintf(missing, "/nope/x"))

	// A live destination.
	add([]string{"Mkdir", "Move", "Copy"}, "alice", "/d", fsapi.ErrExists, fmt.Sprintf(exists, "/d"))
	add([]string{"Mkdir", "Move", "Copy"}, "alice", "/d/g", fsapi.ErrExists, fmt.Sprintf(exists, "/d/g"))
	add([]string{"Move", "Copy"}, "alice", "/f", fsapi.ErrExists, fmt.Sprintf(exists, "/f"))

	// Malformed paths.
	add(all, "alice", "rel", fsapi.ErrInvalidPath, `fs: invalid path: "rel" must be absolute`)
	add(all, "alice", "/a//b", fsapi.ErrInvalidPath, `fs: invalid path: "/a//b" has empty component`)
	add(all, "alice", "/a/../b", fsapi.ErrInvalidPath, `fs: invalid path: "/a/../b" contains ".."`)

	for _, r := range rows {
		err := ops[r.op](r.account, r.path)
		checkErr(t, fmt.Sprintf("%s(%s, %q)", r.op, r.account, r.path), err, r.kind, r.msg)
	}

	// Source-side refusals of MOVE and COPY, and which error wins when
	// source and destination both fail.
	pairs := []struct {
		src, dst string
		kind     error
		msg      string
	}{
		{"/", "/x", fsapi.ErrInvalidPath, "fs: invalid path: cannot move or copy /"},
		{"/", "bad", fsapi.ErrInvalidPath, `fs: invalid path: "bad" must be absolute`},
		{"bad", "/", fsapi.ErrInvalidPath, `fs: invalid path: "bad" must be absolute`},
		{"/d", "/d/x", fsapi.ErrInvalidPath, "fs: invalid path: /d/x is inside /d"},
		{"/nope", "/", fsapi.ErrNotFound, fmt.Sprintf(missing, "/nope")},
		{"/nope", "/d", fsapi.ErrNotFound, fmt.Sprintf(missing, "/nope")},
		{"/nope", "/f/x", fsapi.ErrNotFound, fmt.Sprintf(missing, "/nope")},
		{"/f/x", "/y", fsapi.ErrNotDir, fmt.Sprintf(notDir, "/f/x")},
		{"/d", "/f", fsapi.ErrExists, fmt.Sprintf(exists, "/f")},
		{"/d/g", "/f/y", fsapi.ErrNotDir, fmt.Sprintf(notDir, "/f")},
	}
	for _, p := range pairs {
		checkErr(t, fmt.Sprintf("Move(%q, %q)", p.src, p.dst), m.Move(ctx, "alice", p.src, p.dst), p.kind, p.msg)
		checkErr(t, fmt.Sprintf("Copy(%q, %q)", p.src, p.dst), m.Copy(ctx, "alice", p.src, p.dst), p.kind, p.msg)
	}

	// A negative offset loses to the path's own refusals and wins over
	// everything that needs the tree.
	offsets := []struct {
		path string
		kind error
		msg  string
	}{
		{"/", fsapi.ErrIsDir, fmt.Sprintf(isDir, "/")},
		{"rel", fsapi.ErrInvalidPath, `fs: invalid path: "rel" must be absolute`},
		{"/f", fsapi.ErrInvalidPath, negOff},
		{"/d", fsapi.ErrInvalidPath, negOff},
		{"/nope/x", fsapi.ErrInvalidPath, negOff},
		{"/f/x", fsapi.ErrInvalidPath, negOff},
	}
	for _, o := range offsets {
		_, err := m.ReadFileRange(ctx, "alice", o.path, -1, 1)
		checkErr(t, fmt.Sprintf("ReadFileRange(%q, -1)", o.path), err, o.kind, o.msg)
	}
	_, err := m.ReadFileRange(ctx, "ghost", "/f", -1, 1)
	checkErr(t, `ReadFileRange(ghost, "/f", -1)`, err, fsapi.ErrInvalidPath, negOff)

	// None of the refused calls changed the tree.
	for path, want := range map[string]string{"/f": "x", "/d/g": "y"} {
		got, err := m.ReadFile(ctx, "alice", path)
		if err != nil || string(got) != want {
			t.Fatalf("ReadFile(%s) = (%q, %v), want %q", path, got, err, want)
		}
	}
	if names := listNames(t, m, "/"); fmt.Sprint(names) != "[d f]" {
		t.Fatalf("root lists %v, want [d f]", names)
	}
}

func checkErr(t *testing.T, call string, err, kind error, msg string) {
	t.Helper()
	switch {
	case kind == nil && err != nil:
		t.Errorf("%s = %v, want success", call, err)
	case kind == nil:
	case !errors.Is(err, kind):
		t.Errorf("%s = %v, want errors.Is %v", call, err, kind)
	case err.Error() != msg:
		t.Errorf("%s message = %q, want %q", call, err.Error(), msg)
	}
}
