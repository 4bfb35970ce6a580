package objstore

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func putOK(t *testing.T, n *Node, name string, data []byte) {
	t.Helper()
	if err := n.Put(name, data, nil, time.Now()); err != nil {
		t.Fatalf("Put %s: %v", name, err)
	}
}

func TestNodePutGetRoundTrip(t *testing.T) {
	n := NewNode(1)
	now := time.Unix(100, 0)
	if err := n.Put("a/b", []byte("hello"), map[string]string{"k": "v"}, now); err != nil {
		t.Fatal(err)
	}
	data, info, err := n.Get("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Fatalf("data = %q", data)
	}
	if info.Size != 5 || info.Name != "a/b" || !info.LastModified.Equal(now) {
		t.Fatalf("info = %+v", info)
	}
	if info.Meta["k"] != "v" {
		t.Fatalf("meta = %v", info.Meta)
	}
	if info.ETag != SealedETag([]byte("hello"), map[string]string{"k": "v"}) {
		t.Fatalf("ETag mismatch")
	}
}

func TestNodeGetCopiesData(t *testing.T) {
	n := NewNode(1)
	src := []byte("abc")
	putOK(t, n, "x", src)
	src[0] = 'Z' // caller mutates its buffer after Put
	data, _, err := n.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "abc" {
		t.Fatalf("stored data aliased caller buffer: %q", data)
	}
	data[0] = 'Q' // caller mutates the returned buffer
	again, _, err := n.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != "abc" {
		t.Fatalf("returned data aliased store: %q", again)
	}
}

func TestNodeOverwriteUpdatesBytes(t *testing.T) {
	n := NewNode(1)
	putOK(t, n, "x", make([]byte, 100))
	putOK(t, n, "x", make([]byte, 40))
	count, bytes := n.Stats()
	if count != 1 || bytes != 40 {
		t.Fatalf("Stats = (%d, %d), want (1, 40)", count, bytes)
	}
}

func TestNodeDeleteAndNotFound(t *testing.T) {
	n := NewNode(1)
	if err := n.Delete("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(missing) = %v, want ErrNotFound", err)
	}
	putOK(t, n, "x", []byte("1"))
	if err := n.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Get("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	count, bytes := n.Stats()
	if count != 0 || bytes != 0 {
		t.Fatalf("Stats = (%d, %d), want (0, 0)", count, bytes)
	}
}

func TestNodeHead(t *testing.T) {
	n := NewNode(1)
	if _, err := n.Head("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Head(missing) = %v", err)
	}
	putOK(t, n, "x", []byte("12345"))
	info, err := n.Head("x")
	if err != nil || info.Size != 5 {
		t.Fatalf("Head = %+v, %v", info, err)
	}
}

func TestNodeDown(t *testing.T) {
	n := NewNode(1)
	putOK(t, n, "x", []byte("1"))
	n.SetDown(true)
	if !n.Down() {
		t.Fatal("Down() = false after SetDown(true)")
	}
	if err := n.Put("y", nil, nil, time.Now()); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Put on down node = %v", err)
	}
	if _, _, err := n.Get("x"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get on down node = %v", err)
	}
	if _, err := n.Head("x"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Head on down node = %v", err)
	}
	if err := n.Delete("x"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Delete on down node = %v", err)
	}
	n.SetDown(false)
	if _, _, err := n.Get("x"); err != nil {
		t.Fatalf("Get after recovery = %v", err)
	}
}

func TestNodeNamesSorted(t *testing.T) {
	n := NewNode(1)
	for _, name := range []string{"c", "a", "b"} {
		putOK(t, n, name, nil)
	}
	names := n.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("Names = %v", names)
	}
}

// Property: Put then Get returns exactly the stored bytes for arbitrary
// names and contents.
func TestNodeRoundTripProperty(t *testing.T) {
	n := NewNode(1)
	f := func(name string, data []byte) bool {
		if err := n.Put(name, data, nil, time.Now()); err != nil {
			return false
		}
		got, info, err := n.Get(name)
		if err != nil || info.Size != int64(len(data)) {
			return false
		}
		if len(got) != len(data) {
			return false
		}
		for i := range got {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestETagStable(t *testing.T) {
	if ETag([]byte("x")) != ETag([]byte("x")) {
		t.Fatal("ETag not deterministic")
	}
	if ETag([]byte("x")) == ETag([]byte("y")) {
		t.Fatal("ETag collision on different content")
	}
}

// Seal is the one place a write is copied and hashed: what it returns
// aliases nothing of the caller's, and every holder after that — a second
// node, a re-stamped copy — shares it without being able to disturb it
// through anything a node hands out.
func TestSealedIsCopiedOnceAndSharedAfter(t *testing.T) {
	data, meta := []byte("hello"), map[string]string{"k": "v"}
	now := time.Unix(100, 0)
	s := Seal("a", data, meta, now)
	data[0], meta["k"], meta["new"] = 'J', "changed", "1"
	want := ObjectInfo{Name: "a", Size: 5, ETag: SealedETag([]byte("hello"), map[string]string{"k": "v"}), LastModified: now}
	check := func(when string, s *Sealed, want ObjectInfo) {
		t.Helper()
		info := s.Info()
		if string(s.Bytes()) != "hello" || len(info.Meta) != 1 || info.Meta["k"] != "v" {
			t.Fatalf("%s: %q, meta %v", when, s.Bytes(), info.Meta)
		}
		if info.Name != want.Name || info.Size != want.Size || info.ETag != want.ETag || !info.LastModified.Equal(want.LastModified) {
			t.Fatalf("%s: header %+v, want %+v", when, info, want)
		}
	}
	check("after the writer reused its buffer and map", s, want)

	a, b := NewNode(1), NewNode(2)
	for _, n := range []*Node{a, b} {
		if err := n.PutSealed(s); err != nil {
			t.Fatal(err)
		}
		if got, err := n.Load("a"); err != nil || got != s {
			t.Fatalf("node %d: Load = %p, %v; want the sealed value itself", n.ID(), got, err)
		}
	}
	got, _, err := a.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 'X'
	if sib, _, err := b.Get("a"); err != nil || string(sib) != "hello" {
		t.Fatalf("sibling replica reads %q, %v after a reader scribbled on Get's result", sib, err)
	}
	check("after a reader scribbled on Get's result", s, want)

	later := now.Add(time.Minute)
	cp := s.As("b", later)
	check("the source of a re-stamp", s, want)
	want.Name, want.LastModified = "b", later
	check("a re-stamped copy", cp, want)
	if &cp.Bytes()[0] != &s.Bytes()[0] {
		t.Fatal("As copied the payload")
	}
	if _, bytes := a.Stats(); bytes != 5 {
		t.Fatalf("node bytes = %d, want 5: each node counts the replica it holds", bytes)
	}
}

// TestSealedETagCoversMetadata: an object without metadata keeps the MD5
// of its content; one with metadata changes its ETag when only the
// metadata changes, whatever order the map yields its keys in.
func TestSealedETagCoversMetadata(t *testing.T) {
	data := []byte("ring")
	if SealedETag(data, nil) != ETag(data) || SealedETag(data, map[string]string{}) != ETag(data) {
		t.Fatal("an object without metadata must keep the ETag of its content")
	}
	wm := map[string]string{"wm.1": "3", "wm.2": "4"}
	base := SealedETag(data, wm)
	if base == ETag(data) {
		t.Fatal("metadata left the ETag unchanged")
	}
	for i := 0; i < 20; i++ {
		if got := SealedETag(data, map[string]string{"wm.2": "4", "wm.1": "3"}); got != base {
			t.Fatalf("the same metadata hashed to %s and %s", got, base)
		}
	}
	for _, meta := range []map[string]string{{"wm.1": "3", "wm.2": "5"}, {"wm.1": "3"}, {"wm.1": "34"}, {"wm.13": "4"}} {
		if SealedETag(data, meta) == base {
			t.Fatalf("metadata %v hashed like %v", meta, wm)
		}
	}
	if got := Seal("r", data, wm, time.Unix(0, 0)).Info().ETag; got != base {
		t.Fatalf("Seal = %s, SealedETag = %s", got, base)
	}
	if n := testing.AllocsPerRun(100, func() { _ = SealedETag(data, wm) }); n != 1 {
		t.Fatalf("SealedETag of two short pairs allocates %v times, want the string alone", n)
	}
}
