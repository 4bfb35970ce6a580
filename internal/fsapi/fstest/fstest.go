// Package fstest provides a conformance test suite for fsapi.FileSystem
// implementations.
//
// Nine data structures from the paper's Table 1 implement the same
// filesystem contract in this repository; Run exercises the shared
// semantics (creation, lookup, recursive directory operations, error
// taxonomy) so each implementation's own tests only need to cover what is
// unique to its data structure.
package fstest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/h2cloud/h2cloud/internal/fsapi"
)

// Factory builds a fresh, empty filesystem for one subtest.
type Factory func(t *testing.T) fsapi.FileSystem

// Run executes the conformance suite against implementations produced by
// the factory.
func Run(t *testing.T, mk Factory) {
	t.Helper()
	for _, tc := range suite {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tc.fn(t, mk(t))
		})
	}
}

var suite = []struct {
	name string
	fn   func(t *testing.T, fs fsapi.FileSystem)
}{
	{"MkdirAndStat", testMkdirAndStat},
	{"MkdirRequiresParent", testMkdirRequiresParent},
	{"MkdirDuplicate", testMkdirDuplicate},
	{"MkdirOverFile", testMkdirOverFile},
	{"MkdirRoot", testMkdirRoot},
	{"StatRoot", testStatRoot},
	{"StatMissing", testStatMissing},
	{"WriteRead", testWriteRead},
	{"WriteOverwrite", testWriteOverwrite},
	{"WriteRequiresParent", testWriteRequiresParent},
	{"WriteOverDirectory", testWriteOverDirectory},
	{"ReadMissing", testReadMissing},
	{"ReadDirectory", testReadDirectory},
	{"RemoveFile", testRemoveFile},
	{"RemoveMissing", testRemoveMissing},
	{"RemoveDirectory", testRemoveDirectory},
	{"ListEmpty", testListEmpty},
	{"ListSorted", testListSorted},
	{"ListDetail", testListDetail},
	{"ListFile", testListFile},
	{"ListMissing", testListMissing},
	{"RmdirRecursive", testRmdirRecursive},
	{"RmdirFile", testRmdirFile},
	{"RmdirMissing", testRmdirMissing},
	{"RmdirRoot", testRmdirRoot},
	{"MoveFile", testMoveFile},
	{"MoveDirectorySubtree", testMoveDirectorySubtree},
	{"MoveToExisting", testMoveToExisting},
	{"MoveMissing", testMoveMissing},
	{"MoveIntoOwnSubtree", testMoveIntoOwnSubtree},
	{"Rename", testRename},
	{"CopyFile", testCopyFile},
	{"CopyDirectoryRecursive", testCopyDirectoryRecursive},
	{"CopyPreservesSource", testCopyPreservesSource},
	{"CopyToExisting", testCopyToExisting},
	{"CopyIntoOwnSubtree", testCopyIntoOwnSubtree},
	{"DeepNesting", testDeepNesting},
	{"ManyChildren", testManyChildren},
	{"InvalidPaths", testInvalidPaths},
	{"ConcurrentMix", testConcurrentMix},
}

func ctx() context.Context { return Context() }

func mustMkdir(t *testing.T, fs fsapi.FileSystem, path string) {
	t.Helper()
	if err := fs.Mkdir(ctx(), path); err != nil {
		t.Fatalf("Mkdir(%q): %v", path, err)
	}
}

func mustWrite(t *testing.T, fs fsapi.FileSystem, path, content string) {
	t.Helper()
	if err := fs.WriteFile(ctx(), path, []byte(content)); err != nil {
		t.Fatalf("WriteFile(%q): %v", path, err)
	}
}

func mustRead(t *testing.T, fs fsapi.FileSystem, path, want string) {
	t.Helper()
	data, err := fs.ReadFile(ctx(), path)
	if err != nil {
		t.Fatalf("ReadFile(%q): %v", path, err)
	}
	if !bytes.Equal(data, []byte(want)) {
		t.Fatalf("ReadFile(%q) = %q, want %q", path, data, want)
	}
}

func mustAbsent(t *testing.T, fs fsapi.FileSystem, path string) {
	t.Helper()
	if _, err := fs.Stat(ctx(), path); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("Stat(%q) = %v, want ErrNotFound", path, err)
	}
}

func testMkdirAndStat(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/home")
	mustMkdir(t, fs, "/home/ubuntu")
	info, err := fs.Stat(ctx(), "/home/ubuntu")
	if err != nil {
		t.Fatal(err)
	}
	if !info.IsDir || info.Name != "ubuntu" {
		t.Fatalf("Stat = %+v", info)
	}
}

func testMkdirRequiresParent(t *testing.T, fs fsapi.FileSystem) {
	if err := fs.Mkdir(ctx(), "/no/parent"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("Mkdir without parent = %v, want ErrNotFound", err)
	}
}

func testMkdirDuplicate(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/dir")
	if err := fs.Mkdir(ctx(), "/dir"); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("duplicate Mkdir = %v, want ErrExists", err)
	}
}

func testMkdirOverFile(t *testing.T, fs fsapi.FileSystem) {
	mustWrite(t, fs, "/f", "x")
	if err := fs.Mkdir(ctx(), "/f"); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("Mkdir over file = %v, want ErrExists", err)
	}
}

func testMkdirRoot(t *testing.T, fs fsapi.FileSystem) {
	if err := fs.Mkdir(ctx(), "/"); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("Mkdir(/) = %v, want ErrExists", err)
	}
}

func testStatRoot(t *testing.T, fs fsapi.FileSystem) {
	info, err := fs.Stat(ctx(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if !info.IsDir {
		t.Fatalf("root not a directory: %+v", info)
	}
}

func testStatMissing(t *testing.T, fs fsapi.FileSystem) {
	mustAbsent(t, fs, "/missing")
	mustMkdir(t, fs, "/d")
	mustAbsent(t, fs, "/d/missing")
	mustAbsent(t, fs, "/d/missing/deeper")
}

func testWriteRead(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/docs")
	mustWrite(t, fs, "/docs/a.txt", "hello world")
	mustRead(t, fs, "/docs/a.txt", "hello world")
	info, err := fs.Stat(ctx(), "/docs/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if info.IsDir || info.Size != 11 || info.Name != "a.txt" {
		t.Fatalf("Stat = %+v", info)
	}
}

func testWriteOverwrite(t *testing.T, fs fsapi.FileSystem) {
	mustWrite(t, fs, "/f", "v1")
	mustWrite(t, fs, "/f", "version2")
	mustRead(t, fs, "/f", "version2")
	info, _ := fs.Stat(ctx(), "/f")
	if info.Size != 8 {
		t.Fatalf("Size = %d, want 8", info.Size)
	}
}

func testWriteRequiresParent(t *testing.T, fs fsapi.FileSystem) {
	if err := fs.WriteFile(ctx(), "/no/parent.txt", nil); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("WriteFile without parent = %v, want ErrNotFound", err)
	}
}

func testWriteOverDirectory(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/d")
	if err := fs.WriteFile(ctx(), "/d", []byte("x")); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("WriteFile over dir = %v, want ErrIsDir", err)
	}
}

func testReadMissing(t *testing.T, fs fsapi.FileSystem) {
	if _, err := fs.ReadFile(ctx(), "/nope"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("ReadFile missing = %v, want ErrNotFound", err)
	}
}

func testReadDirectory(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/d")
	if _, err := fs.ReadFile(ctx(), "/d"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("ReadFile(dir) = %v, want ErrIsDir", err)
	}
}

func testRemoveFile(t *testing.T, fs fsapi.FileSystem) {
	mustWrite(t, fs, "/f", "x")
	if err := fs.Remove(ctx(), "/f"); err != nil {
		t.Fatal(err)
	}
	mustAbsent(t, fs, "/f")
}

func testRemoveMissing(t *testing.T, fs fsapi.FileSystem) {
	if err := fs.Remove(ctx(), "/nope"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("Remove missing = %v, want ErrNotFound", err)
	}
}

func testRemoveDirectory(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/d")
	if err := fs.Remove(ctx(), "/d"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("Remove(dir) = %v, want ErrIsDir", err)
	}
}

func testListEmpty(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/empty")
	entries, err := fs.List(ctx(), "/empty", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("List = %v, want empty", entries)
	}
}

func testListSorted(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/bin")
	for _, n := range []string{"nc", "cat", "bash"} {
		mustWrite(t, fs, "/bin/"+n, n)
	}
	mustMkdir(t, fs, "/bin/subdir")
	entries, err := fs.List(ctx(), "/bin", false)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bash", "cat", "nc", "subdir"}
	if len(entries) != len(want) {
		t.Fatalf("List = %v, want %v", entries, want)
	}
	for i, e := range entries {
		if e.Name != want[i] {
			t.Fatalf("List order = %v, want %v", entries, want)
		}
	}
	if !entries[3].IsDir || entries[0].IsDir {
		t.Fatalf("IsDir bits wrong: %+v", entries)
	}
}

func testListDetail(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/d")
	mustWrite(t, fs, "/d/a", "12345")
	mustWrite(t, fs, "/d/b", "12")
	entries, err := fs.List(ctx(), "/d", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Size != 5 || entries[1].Size != 2 {
		t.Fatalf("detailed List = %+v", entries)
	}
}

func testListFile(t *testing.T, fs fsapi.FileSystem) {
	mustWrite(t, fs, "/f", "x")
	if _, err := fs.List(ctx(), "/f", false); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("List(file) = %v, want ErrNotDir", err)
	}
}

func testListMissing(t *testing.T, fs fsapi.FileSystem) {
	if _, err := fs.List(ctx(), "/nope", false); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("List missing = %v, want ErrNotFound", err)
	}
}

func testRmdirRecursive(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/top")
	mustMkdir(t, fs, "/top/sub")
	mustWrite(t, fs, "/top/f1", "1")
	mustWrite(t, fs, "/top/sub/f2", "2")
	if err := fs.Rmdir(ctx(), "/top"); err != nil {
		t.Fatal(err)
	}
	mustAbsent(t, fs, "/top")
	mustAbsent(t, fs, "/top/sub")
	mustAbsent(t, fs, "/top/f1")
	mustAbsent(t, fs, "/top/sub/f2")
}

func testRmdirFile(t *testing.T, fs fsapi.FileSystem) {
	mustWrite(t, fs, "/f", "x")
	if err := fs.Rmdir(ctx(), "/f"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("Rmdir(file) = %v, want ErrNotDir", err)
	}
}

func testRmdirMissing(t *testing.T, fs fsapi.FileSystem) {
	if err := fs.Rmdir(ctx(), "/nope"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("Rmdir missing = %v, want ErrNotFound", err)
	}
}

func testRmdirRoot(t *testing.T, fs fsapi.FileSystem) {
	if err := fs.Rmdir(ctx(), "/"); !errors.Is(err, fsapi.ErrInvalidPath) {
		t.Fatalf("Rmdir(/) = %v, want ErrInvalidPath", err)
	}
}

func testMoveFile(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/a")
	mustMkdir(t, fs, "/b")
	mustWrite(t, fs, "/a/f", "payload")
	if err := fs.Move(ctx(), "/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	mustAbsent(t, fs, "/a/f")
	mustRead(t, fs, "/b/g", "payload")
}

func testMoveDirectorySubtree(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/src")
	mustMkdir(t, fs, "/src/inner")
	mustWrite(t, fs, "/src/f1", "1")
	mustWrite(t, fs, "/src/inner/f2", "2")
	mustMkdir(t, fs, "/dstparent")
	if err := fs.Move(ctx(), "/src", "/dstparent/dst"); err != nil {
		t.Fatal(err)
	}
	mustAbsent(t, fs, "/src")
	mustRead(t, fs, "/dstparent/dst/f1", "1")
	mustRead(t, fs, "/dstparent/dst/inner/f2", "2")
	info, err := fs.Stat(ctx(), "/dstparent/dst/inner")
	if err != nil || !info.IsDir {
		t.Fatalf("inner dir after move: %+v, %v", info, err)
	}
}

func testMoveToExisting(t *testing.T, fs fsapi.FileSystem) {
	mustWrite(t, fs, "/a", "1")
	mustWrite(t, fs, "/b", "2")
	if err := fs.Move(ctx(), "/a", "/b"); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("Move onto existing = %v, want ErrExists", err)
	}
}

func testMoveMissing(t *testing.T, fs fsapi.FileSystem) {
	if err := fs.Move(ctx(), "/nope", "/dst"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("Move missing = %v, want ErrNotFound", err)
	}
}

func testMoveIntoOwnSubtree(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/d")
	mustMkdir(t, fs, "/d/sub")
	if err := fs.Move(ctx(), "/d", "/d/sub/d2"); !errors.Is(err, fsapi.ErrInvalidPath) {
		t.Fatalf("Move into own subtree = %v, want ErrInvalidPath", err)
	}
}

func testRename(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/dir")
	mustWrite(t, fs, "/dir/old", "content")
	if err := fsapi.Rename(ctx(), fs, "/dir/old", "new"); err != nil {
		t.Fatal(err)
	}
	mustAbsent(t, fs, "/dir/old")
	mustRead(t, fs, "/dir/new", "content")
}

func testCopyFile(t *testing.T, fs fsapi.FileSystem) {
	mustWrite(t, fs, "/src", "data")
	if err := fs.Copy(ctx(), "/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	mustRead(t, fs, "/src", "data")
	mustRead(t, fs, "/dst", "data")
}

func testCopyDirectoryRecursive(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/src")
	mustMkdir(t, fs, "/src/sub")
	mustWrite(t, fs, "/src/f", "1")
	mustWrite(t, fs, "/src/sub/g", "2")
	if err := fs.Copy(ctx(), "/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	mustRead(t, fs, "/dst/f", "1")
	mustRead(t, fs, "/dst/sub/g", "2")
}

func testCopyPreservesSource(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/src")
	mustWrite(t, fs, "/src/f", "1")
	if err := fs.Copy(ctx(), "/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, fs, "/dst/f", "changed")
	mustRead(t, fs, "/src/f", "1") // copies must not alias
}

func testCopyToExisting(t *testing.T, fs fsapi.FileSystem) {
	mustWrite(t, fs, "/a", "1")
	mustWrite(t, fs, "/b", "2")
	if err := fs.Copy(ctx(), "/a", "/b"); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("Copy onto existing = %v, want ErrExists", err)
	}
}

func testCopyIntoOwnSubtree(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/d")
	if err := fs.Copy(ctx(), "/d", "/d/copy"); !errors.Is(err, fsapi.ErrInvalidPath) {
		t.Fatalf("Copy into own subtree = %v, want ErrInvalidPath", err)
	}
}

func testDeepNesting(t *testing.T, fs fsapi.FileSystem) {
	// The paper's workloads reach depth > 20 (§5.1).
	path := ""
	for i := 0; i < 22; i++ {
		path = fmt.Sprintf("%s/d%d", path, i)
		mustMkdir(t, fs, path)
	}
	mustWrite(t, fs, path+"/leaf", "deep")
	mustRead(t, fs, path+"/leaf", "deep")
	info, err := fs.Stat(ctx(), path+"/leaf")
	if err != nil || info.Size != 4 {
		t.Fatalf("deep Stat = %+v, %v", info, err)
	}
}

func testManyChildren(t *testing.T, fs fsapi.FileSystem) {
	mustMkdir(t, fs, "/big")
	const n = 300
	for i := 0; i < n; i++ {
		mustWrite(t, fs, fmt.Sprintf("/big/f%04d", i), "x")
	}
	entries, err := fs.List(ctx(), "/big", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("List found %d children, want %d", len(entries), n)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name >= entries[i].Name {
			t.Fatal("List not sorted")
		}
	}
}

func testInvalidPaths(t *testing.T, fs fsapi.FileSystem) {
	for _, p := range []string{"", "rel/path", "/a//b", "/a/../b"} {
		if err := fs.Mkdir(ctx(), p); !errors.Is(err, fsapi.ErrInvalidPath) {
			t.Errorf("Mkdir(%q) = %v, want ErrInvalidPath", p, err)
		}
		if _, err := fs.Stat(ctx(), p); !errors.Is(err, fsapi.ErrInvalidPath) {
			t.Errorf("Stat(%q) = %v, want ErrInvalidPath", p, err)
		}
	}
}

// testConcurrentMix runs four goroutines, released together, through
// every operation at once. Goroutine g owns /g<g> and the names g<g>-* in
// the one shared directory /s, so each reply it gets is checked against
// its own replay on a model, and the final tree must be the union of the
// four models. Under -race this is the cell that executes each
// filesystem's locking instead of inferring it.
func testConcurrentMix(t *testing.T, fs fsapi.FileSystem) {
	const workers, rounds = 4, 40
	mustMkdir(t, fs, "/s")
	models := make([]*model, workers)
	for g := range models {
		models[g] = newModel()
		mustMkdir(t, models[g], "/s")
		mustMkdir(t, models[g], fmt.Sprintf("/g%d", g))
		mustMkdir(t, fs, fmt.Sprintf("/g%d", g))
	}
	start := make(chan struct{})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := range models {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			errs[g] = mixRounds(fs, models[g], g, rounds)
		}(g)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	union := newModel()
	for _, m := range models {
		for p, e := range m.entries {
			union.entries[p] = e
		}
	}
	compareTrees(t, ctx(), fs, union)
}

// mixRounds is goroutine g's cycle: write, move into /s, detailed LIST of
// /s, copy back, remove, mkdir, move into that directory, write beside it
// (so a pipelined copy has two children to run at once), copy the
// directory, rmdir, read, stat. It returns the first reply that differs
// from the model's.
func mixRounds(fs fsapi.FileSystem, m *model, g, rounds int) error {
	c := ctx()
	x := mixer{g: g}
	own, mine := fmt.Sprintf("/g%d", g), fmt.Sprintf("g%d-", g)
	f, c1 := own+"/f", own+"/c"
	sf, sd := "/s/"+mine+"f", "/s/"+mine+"d"
	for r := 0; r < rounds && x.err == nil; r++ {
		data := []byte(strings.Repeat(fmt.Sprintf("g%d.r%d;", g, r), 1+r%3))
		dcopy := fmt.Sprintf("%s/d%d", own, r)
		x.same("WriteFile "+f, fs.WriteFile(c, f, data), m.WriteFile(c, f, data))
		x.same("Move "+f, fs.Move(c, f, sf), m.Move(c, f, sf))
		got, err := fs.List(c, "/s", true)
		want, merr := m.List(c, "/s", true)
		if x.same("List /s", err, merr) {
			got = slices.DeleteFunc(got, func(e fsapi.EntryInfo) bool { return !strings.HasPrefix(e.Name, mine) })
			if !slices.EqualFunc(got, want, sameEntry) {
				x.fail("List /s = %v, model %v", got, want)
			}
		}
		x.same("Copy "+sf, fs.Copy(c, sf, c1), m.Copy(c, sf, c1))
		x.same("Remove "+sf, fs.Remove(c, sf), m.Remove(c, sf))
		x.same("Mkdir "+sd, fs.Mkdir(c, sd), m.Mkdir(c, sd))
		x.same("Move "+c1, fs.Move(c, c1, sd+"/c"), m.Move(c, c1, sd+"/c"))
		x.same("WriteFile "+sd+"/w", fs.WriteFile(c, sd+"/w", data), m.WriteFile(c, sd+"/w", data))
		x.same("Copy "+sd, fs.Copy(c, sd, dcopy), m.Copy(c, sd, dcopy))
		x.same("Rmdir "+sd, fs.Rmdir(c, sd), m.Rmdir(c, sd))
		b, err := fs.ReadFile(c, dcopy+"/c")
		wb, merr := m.ReadFile(c, dcopy+"/c")
		if x.same("ReadFile "+dcopy+"/c", err, merr) && !bytes.Equal(b, wb) {
			x.fail("ReadFile %s/c = %q, model %q", dcopy, b, wb)
		}
		for _, p := range []string{dcopy, sd} {
			info, err := fs.Stat(c, p)
			winfo, merr := m.Stat(c, p)
			if x.same("Stat "+p, err, merr) && !sameEntry(info, winfo) {
				x.fail("Stat %s = %+v, model %+v", p, info, winfo)
			}
		}
	}
	return x.err
}

// mixer keeps the first divergence of one goroutine's replies from its
// model.
type mixer struct {
	g   int
	err error
}

func (x *mixer) fail(format string, args ...any) {
	if x.err == nil {
		x.err = fmt.Errorf("goroutine %d: "+format, append([]any{x.g}, args...)...)
	}
}

// same reports whether the implementation's error is of the model's kind.
func (x *mixer) same(what string, got, want error) bool {
	if errKind(got) != errKind(want) {
		x.fail("%s = %v, model %v", what, got, want)
	}
	return x.err == nil
}

func errKind(err error) error {
	for _, kind := range []error{fsapi.ErrNotFound, fsapi.ErrExists, fsapi.ErrNotDir, fsapi.ErrIsDir, fsapi.ErrInvalidPath} {
		if errors.Is(err, kind) {
			return kind
		}
	}
	return err
}

// sameEntry compares what every filesystem reports alike: the name, the
// kind and a file's size.
func sameEntry(a, b fsapi.EntryInfo) bool {
	return a.Name == b.Name && a.IsDir == b.IsDir && (a.IsDir || a.Size == b.Size)
}
