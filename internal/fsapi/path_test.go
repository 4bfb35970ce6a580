package fsapi

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestCleanValid(t *testing.T) {
	cases := map[string]string{
		"/":                  "/",
		"/home":              "/home",
		"/home/":             "/home",
		"/home/ubuntu/file1": "/home/ubuntu/file1",
	}
	for in, want := range cases {
		got, err := Clean(in)
		if err != nil || got != want {
			t.Errorf("Clean(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
}

func TestCleanInvalid(t *testing.T) {
	for _, in := range []string{"", "relative", "//", "/a//b", "/a/./b", "/a/../b", "/.."} {
		if _, err := Clean(in); !errors.Is(err, ErrInvalidPath) {
			t.Errorf("Clean(%q) err = %v, want ErrInvalidPath", in, err)
		}
	}
}

// TestCleanAllocatesNothing: a valid path is checked in place, with or
// without its trailing slash.
func TestCleanAllocatesNothing(t *testing.T) {
	for _, in := range []string{"/", "/home/ubuntu/file1", "/home/ubuntu/"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = Clean(in) }); n != 0 {
			t.Errorf("Clean(%q) allocates %v times", in, n)
		}
	}
}

func TestSplit(t *testing.T) {
	dir, name, err := Split("/home/ubuntu/file1")
	if err != nil || dir != "/home/ubuntu" || name != "file1" {
		t.Fatalf("Split = %q, %q, %v", dir, name, err)
	}
	dir, name, err = Split("/home")
	if err != nil || dir != "/" || name != "home" {
		t.Fatalf("Split(/home) = %q, %q, %v", dir, name, err)
	}
	if _, _, err := Split("/"); err == nil {
		t.Fatal("Split(/) succeeded")
	}
}

func TestComponents(t *testing.T) {
	cs, err := Components("/home/ubuntu/file1")
	if err != nil || len(cs) != 3 || cs[0] != "home" || cs[2] != "file1" {
		t.Fatalf("Components = %v, %v", cs, err)
	}
	cs, err = Components("/")
	if err != nil || len(cs) != 0 {
		t.Fatalf("Components(/) = %v, %v", cs, err)
	}
}

func TestJoin(t *testing.T) {
	if got := Join("/", "home"); got != "/home" {
		t.Fatalf("Join(/, home) = %q", got)
	}
	if got := Join("/home", "ubuntu"); got != "/home/ubuntu" {
		t.Fatalf("Join = %q", got)
	}
}

func TestDepthMatchesPaperExample(t *testing.T) {
	// Paper §3.2: /home/ubuntu/file1 has d = 3.
	if got := Depth("/home/ubuntu/file1"); got != 3 {
		t.Fatalf("Depth = %d, want 3", got)
	}
	if got := Depth("/"); got != 0 {
		t.Fatalf("Depth(/) = %d, want 0", got)
	}
	if got := Depth("/home"); got != 1 {
		t.Fatalf("Depth(/home) = %d, want 1", got)
	}
}

func TestIsAncestor(t *testing.T) {
	cases := []struct {
		anc, path string
		want      bool
	}{
		{"/", "/home", true},
		{"/home", "/home/ubuntu", true},
		{"/home", "/home", false},
		{"/home", "/homework", false},
		{"/home/ubuntu", "/home", false},
		{"/", "/", false},
	}
	for _, c := range cases {
		if got := IsAncestor(c.anc, c.path); got != c.want {
			t.Errorf("IsAncestor(%q, %q) = %v, want %v", c.anc, c.path, got, c.want)
		}
	}
}

func TestCleanMovePair(t *testing.T) {
	if src, dst, err := CleanMovePair("/a/", "/b/c"); err != nil || src != "/a" || dst != "/b/c" {
		t.Fatalf("CleanMovePair = %q, %q, %v", src, dst, err)
	}
	if _, _, err := CleanMovePair("/a", "/a"); err != nil {
		t.Fatalf("CleanMovePair(/a, /a) = %v; the filesystem reports the existing dst", err)
	}
	for _, c := range [][2]string{{"/", "/x"}, {"/a", "/a/b"}, {"a", "/b"}, {"/a", "/b/../c"}} {
		if _, _, err := CleanMovePair(c[0], c[1]); !errors.Is(err, ErrInvalidPath) {
			t.Errorf("CleanMovePair(%q, %q) = %v, want ErrInvalidPath", c[0], c[1], err)
		}
	}
}

// Property: Split then Join reconstructs any cleaned non-root path.
func TestSplitJoinRoundTrip(t *testing.T) {
	f := func(a, b uint8) bool {
		names := []string{"bin", "home", "usr", "cat", "file1", "x"}
		path := "/" + names[int(a)%len(names)] + "/" + names[int(b)%len(names)]
		dir, name, err := Split(path)
		if err != nil {
			return false
		}
		return Join(dir, name) == path
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Clean is idempotent.
func TestCleanIdempotent(t *testing.T) {
	f := func(segs []uint8) bool {
		path := "/"
		names := []string{"a", "b", "c"}
		for _, s := range segs {
			path = Join(path, names[int(s)%len(names)])
			if path == "/a" && len(segs) > 6 {
				break
			}
		}
		c1, err := Clean(path)
		if err != nil {
			return false
		}
		c2, err := Clean(c1)
		return err == nil && c1 == c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
