package objstore

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func openDisk(t *testing.T, dir string) *DiskNode {
	t.Helper()
	n, err := OpenDiskNode(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDiskNodeRoundTrip(t *testing.T) {
	n := openDisk(t, t.TempDir())
	now := time.Unix(50, 0)
	if err := n.Put("a/b::c", []byte("payload"), map[string]string{"k": "v"}, now); err != nil {
		t.Fatal(err)
	}
	data, info, err := n.Get("a/b::c")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "payload" || info.Size != 7 || info.Meta["k"] != "v" {
		t.Fatalf("got %q, %+v", data, info)
	}
	if !info.LastModified.Equal(now) {
		t.Fatalf("LastModified = %v", info.LastModified)
	}
}

func TestDiskNodePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	n := openDisk(t, dir)
	if err := n.Put("keep", []byte("durable"), map[string]string{"x": "1"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := n.Put("drop", []byte("temp"), nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := n.Delete("drop"); err != nil {
		t.Fatal(err)
	}

	reopened := openDisk(t, dir)
	data, info, err := reopened.Get("keep")
	if err != nil || string(data) != "durable" || info.Meta["x"] != "1" {
		t.Fatalf("after reopen: %q, %+v, %v", data, info, err)
	}
	if _, _, err := reopened.Get("drop"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object resurrected: %v", err)
	}
	count, bytes := reopened.Stats()
	if count != 1 || bytes != 7 {
		t.Fatalf("Stats after reopen = (%d, %d)", count, bytes)
	}
	names := reopened.Names()
	if len(names) != 1 || names[0] != "keep" {
		t.Fatalf("Names = %v", names)
	}
}

func TestDiskNodeOverwrite(t *testing.T) {
	n := openDisk(t, t.TempDir())
	if err := n.Put("x", make([]byte, 100), nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := n.Put("x", make([]byte, 10), nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	count, bytes := n.Stats()
	if count != 1 || bytes != 10 {
		t.Fatalf("Stats = (%d, %d)", count, bytes)
	}
}

func TestDiskNodeDownAndErrors(t *testing.T) {
	n := openDisk(t, t.TempDir())
	if err := n.Delete("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete missing = %v", err)
	}
	if _, err := n.Head("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Head missing = %v", err)
	}
	n.SetDown(true)
	if err := n.Put("x", nil, nil, time.Now()); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Put while down = %v", err)
	}
	if !n.Down() {
		t.Fatal("Down = false")
	}
}

func TestDiskNodeCorruptSidecarRejectedAtOpen(t *testing.T) {
	dir := t.TempDir()
	n := openDisk(t, dir)
	if err := n.Put("x", []byte("1"), nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	// Corrupt the sidecar on disk.
	matches, err := filepath.Glob(filepath.Join(dir, "*.meta"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("sidecars: %v, %v", matches, err)
	}
	if err := writeAtomic(matches[0], []byte("{broken")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskNode(1, dir); err == nil {
		t.Fatal("corrupt sidecar accepted at open")
	}
}

// A DiskNode stores a sealed version as it stands — the sidecar carries
// the sealed header, the ETag included, rather than a fresh hash — and a
// reopened node's Load, Get and Head agree with it.
func TestDiskNodePutSealedSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(50, 0)
	s := &Sealed{
		data: []byte("payload"),
		info: ObjectInfo{Name: "a/b", Size: 7, ETag: "the-sealed-etag", LastModified: now, Meta: map[string]string{"k": "v"}},
	}
	if err := openDisk(t, dir).PutSealed(s); err != nil {
		t.Fatal(err)
	}
	n := openDisk(t, dir)
	agrees := func(what string, info ObjectInfo) {
		t.Helper()
		if info.Name != "a/b" || info.Size != 7 || info.ETag != "the-sealed-etag" ||
			!info.LastModified.Equal(now) || len(info.Meta) != 1 || info.Meta["k"] != "v" {
			t.Fatalf("%s after reopen = %+v", what, info)
		}
	}
	got, err := n.Load("a/b")
	if err != nil || string(got.Bytes()) != "payload" {
		t.Fatalf("Load after reopen = %v, %v", got, err)
	}
	agrees("Load", got.Info())
	data, info, err := n.Get("a/b")
	if err != nil || string(data) != "payload" {
		t.Fatalf("Get after reopen = %q, %v", data, err)
	}
	agrees("Get", info)
	info, err = n.Head("a/b")
	if err != nil {
		t.Fatal(err)
	}
	agrees("Head", info)
	// The convenience form seals first, so its ETag is the content's.
	if err := n.Put("c", []byte("x"), nil, now); err != nil {
		t.Fatal(err)
	}
	if info, err := openDisk(t, dir).Head("c"); err != nil || info.ETag != ETag([]byte("x")) {
		t.Fatalf("Head of a Put after reopen = %+v, %v", info, err)
	}
}
