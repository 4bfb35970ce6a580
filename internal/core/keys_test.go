package core

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// keyTable pins ParseKey on every builder's output.
var keyTable = []struct {
	key  string
	want Key
}{
	{ChildKey("alice", "N1", "file"), Key{Kind: KeyChild, Account: "alice", NS: "N1", Name: "file"}},
	{ChildKey("alice", "02.01.1700000000000", "a b:c|d"), Key{Kind: KeyChild, Account: "alice", NS: "02.01.1700000000000", Name: "a b:c|d"}},
	{ChildKey("alice", "N1", ".Node01.Patch000003"), Key{Kind: KeyChild, Account: "alice", NS: "N1", Name: ".Node01.Patch000003"}},
	{RingKey("alice", "N97"), Key{Kind: KeyRing, Account: "alice", NS: "N97"}},
	{PatchKey("alice", "N97", 1, 3), Key{Kind: KeyPatch, Account: "alice", NS: "N97", Node: 1, Seq: 3}},
	{PatchKey("alice", "N97", 4711, 123456789), Key{Kind: KeyPatch, Account: "alice", NS: "N97", Node: 4711, Seq: 123456789}},
	{RootKey("alice"), Key{Kind: KeyRoot, Account: "alice"}},
	{ExtentKey("alice", "N97", 7, 16), Key{Kind: KeyExtent, Account: "alice", NS: "N97", Shard: 7, Shards: 16}},
	{ExtentKey("alice", "N97", 0, 2), Key{Kind: KeyExtent, Account: "alice", NS: "N97", Shard: 0, Shards: 2}},
	{SegmentKey("alice", "N1", "video.mp4", 12), Key{Kind: KeySegment, Account: "alice", NS: "N1", Name: "video.mp4", Seq: 12}},
	{GCQueueKey("alice", 3, 17), Key{Kind: KeyGCEntry, Account: "alice", Node: 3, Seq: 17}},
	{GCIndexKey(7), Key{Kind: KeyGCIndex, Node: 7}},
}

// lookAlikes are near misses of the key shapes: no builder makes them.
var lookAlikes = []string{
	"",
	"alice",
	"alice|N1",                               // no "::"
	"alice|::file",                           // empty namespace
	"alice|N1::",                             // empty child name
	"alice|N1::a/b",                          // '/' in a child name
	"alice|N1::/NameRing",                    // ring suffix cut short
	"alice|N1::/NameRing/x",                  // reserved name, no kind
	"alice|N1::/NameRing/.Node01",            // patch without a sequence
	"alice|N1::/NameRing/.Node1.Patch000003", // node not zero-padded
	"alice|N1::/NameRing/.Node01.Patch3",     // sequence not zero-padded
	"alice|N1::/NameRing/.NodeAA.Patch000003", // not a number
	"alice|N1::/NameRing/.Node01.Patch+00003",
	"alice|N1::/NameRing/.Node01.Patch-0",
	"alice|N1::/NameRing/.Extent016-016", // shard >= shards
	"alice|N1::/NameRing/.Extent000-001", // count below minimum
	"alice|N1::/NameRing/.Extent-01-016", // negative shard
	"alice|N1::/NameRing/.Extentxx-016",
	"alice|N1::/slo/",
	"alice|N1::/slo/000001",          // segment without a name
	"alice|N1::/slo//000001",         // empty name
	"alice|N1::/slo/a/b/000001",      // '/' in a segment name
	"alice|N1::/slo/a/1",             // index not zero-padded
	"alice|N1::/slo/a/0000000000001", // index not zero-padded
	"alice|/rootx",
	"alice|/gcq/Node3.Item000017",
	"alice|/gcq/Node03.Item17",
	"alice|/gcq/Node03",
	"#gc|Node7",
	"#gc|/root",
	"#gc|Node07x",
}

// rebuildKey calls the builder of k's kind with k's fields.
func rebuildKey(k Key) string {
	switch k.Kind {
	case KeyRoot:
		return RootKey(k.Account)
	case KeyChild:
		return ChildKey(k.Account, k.NS, k.Name)
	case KeySegment:
		return SegmentKey(k.Account, k.NS, k.Name, k.Seq)
	case KeyRing:
		return RingKey(k.Account, k.NS)
	case KeyPatch:
		return PatchKey(k.Account, k.NS, k.Node, k.Seq)
	case KeyExtent:
		return ExtentKey(k.Account, k.NS, k.Shard, k.Shards)
	case KeyGCEntry:
		return GCQueueKey(k.Account, k.Node, k.Seq)
	case KeyGCIndex:
		return GCIndexKey(k.Node)
	}
	return ""
}

func TestParseKey(t *testing.T) {
	for _, c := range keyTable {
		k, ok := ParseKey(c.key)
		if !ok || k != c.want {
			t.Errorf("ParseKey(%q) = %+v, %v; want %+v", c.key, k, ok, c.want)
		}
		if got := rebuildKey(k); got != c.key {
			t.Errorf("ParseKey(%q) rebuilds to %q", c.key, got)
		}
	}
	for _, bad := range lookAlikes {
		if k, ok := ParseKey(bad); ok || k != (Key{}) {
			t.Errorf("ParseKey(%q) = %+v, %v; want a rejection", bad, k, ok)
		}
	}
}

func TestParseKeyAllocatesNothing(t *testing.T) {
	keys := []string{PatchKey("alice", "N97", 1, 3), ChildKey("alice", "N1", "file"), "alice|N1::/NameRing/.Node01.PatchZZ"}
	for _, key := range keys {
		if n := testing.AllocsPerRun(100, func() { _, _ = ParseKey(key) }); n != 0 {
			t.Errorf("ParseKey(%q) allocates %v times", key, n)
		}
	}
}

// SegmentKey's layout is an on-store format: the %06d index is a
// minimum width, sign included, and the key is built in one allocation.
func TestSegmentKeyLayout(t *testing.T) {
	for _, i := range []int{0, 7, 999999, 1000000, -1} {
		want := "alice|N1::/slo/video.mp4/" + fmt.Sprintf("%06d", i)
		if got := SegmentKey("alice", "N1", "video.mp4", i); got != want {
			t.Errorf("SegmentKey(%d) = %q, want %q", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = SegmentKey("alice", "N1", "video.mp4", 12) }); n != 1 {
		t.Errorf("SegmentKey allocates %v times per call, want 1", n)
	}
}

func TestChunkManifestRoundTrip(t *testing.T) {
	c := ChunkManifest{Chunks: 3, Size: 10 << 20, ChunkSize: 4 << 20}
	body, meta := c.Encode()
	if want := "H2SLO/1\nchunks=3\nchunkSize=4194304\nsize=10485760\n"; string(body) != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
	want := map[string]string{"h2type": "file", "h2slo": "3", "h2size": "10485760", "chunk": "4194304"}
	if !reflect.DeepEqual(meta, want) {
		t.Fatalf("meta = %v, want %v", meta, want)
	}
	if got, ok := ParseChunkManifest(meta); !ok || got != c {
		t.Fatalf("ParseChunkManifest = %+v, %v; want %+v", got, ok, c)
	}
	for _, bad := range []map[string]string{
		nil,
		{MetaType: TypeFile},
		{"h2slo": "x", "h2size": "1"},
		{"h2slo": "-1", "h2size": "1"},
		{"h2slo": "1", "h2size": "?"},
	} {
		if got, ok := ParseChunkManifest(bad); ok {
			t.Errorf("ParseChunkManifest(%v) = %+v, a manifest", bad, got)
		}
	}
	plain := map[string]string{MetaType: TypeFile}
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseChunkManifest(plain) }); n != 0 {
		t.Errorf("ParseChunkManifest of a plain file allocates %v times", n)
	}
}

func TestWatermarksRoundTrip(t *testing.T) {
	wm := Watermarks{{Node: 0, Seq: 4}, {Node: 3, Seq: 17}}
	meta := EncodeWatermarks(wm)
	if want := map[string]string{"wm.0": "4", "wm.3": "17"}; !reflect.DeepEqual(meta, want) {
		t.Fatalf("EncodeWatermarks = %v, want %v", meta, want)
	}
	meta[MetaType] = TypeDir
	if got := ParseWatermarks(nil, meta); !reflect.DeepEqual(got, wm) {
		t.Fatalf("ParseWatermarks = %v, want %v", got, wm)
	}
	if got := ParseWatermarks(nil, nil); len(got) != 0 {
		t.Fatalf("ParseWatermarks(nil) = %v, want none", got)
	}
}

// TestWatermarksIgnoreMalformedFields: a "wm." field whose node or
// sequence is not an integer is not a watermark.
func TestWatermarksIgnoreMalformedFields(t *testing.T) {
	meta := map[string]string{"wm.": "1", "wm.x": "1", "wm.5": "y", "wm.2": "", "wm.7": "3", "wmx.1": "2"}
	if got, want := ParseWatermarks(nil, meta), (Watermarks{{Node: 7, Seq: 3}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseWatermarks(%v) = %v, want %v", meta, got, want)
	}
}

// TestWatermarksRaiseNeverLowers: parsing into a set, like Raise, keeps
// the higher of the two sequences per node; Set is the one way down.
func TestWatermarksRaiseNeverLowers(t *testing.T) {
	wm := Watermarks{{Node: 1, Seq: 9}}
	wm = wm.Raise(1, 4)
	if got := wm.Get(1); got != 9 {
		t.Fatalf("Raise(1, 4) over 9 left %d", got)
	}
	wm = ParseWatermarks(wm, map[string]string{"wm.1": "2", "wm.2": "6"})
	if want := (Watermarks{{Node: 1, Seq: 9}, {Node: 2, Seq: 6}}); !reflect.DeepEqual(wm, want) {
		t.Fatalf("ParseWatermarks over %v = %v, want %v", Watermarks{{Node: 1, Seq: 9}}, wm, want)
	}
	wm = wm.Raise(2, 8).Set(1, 3)
	if want := (Watermarks{{Node: 1, Seq: 3}, {Node: 2, Seq: 8}}); !reflect.DeepEqual(wm, want) {
		t.Fatalf("Raise(2, 8).Set(1, 3) = %v, want %v", wm, want)
	}
	if got := wm.Get(5); got != 0 {
		t.Fatalf("Get of a node without a watermark = %d, want 0", got)
	}
}

// TestWatermarksNodeSorted: whatever order the metadata map yields its
// fields in, the parsed set is in ascending node order, and parsing into
// spare capacity allocates nothing.
func TestWatermarksNodeSorted(t *testing.T) {
	meta := map[string]string{}
	for _, node := range []int{12, 3, 40, 0, 7, 25} {
		meta["wm."+strconv.Itoa(node)] = strconv.Itoa(node * 2)
	}
	for i := 0; i < 20; i++ {
		got := ParseWatermarks(nil, meta)
		if !slices.IsSortedFunc(got, func(a, b Watermark) int { return a.Node - b.Node }) || len(got) != 6 {
			t.Fatalf("ParseWatermarks = %v, want 6 entries in node order", got)
		}
		for _, w := range got {
			if w.Seq != w.Node*2 {
				t.Fatalf("ParseWatermarks = %v: node %d has seq %d", got, w.Node, w.Seq)
			}
		}
	}
	var slots [6]Watermark
	if n := testing.AllocsPerRun(100, func() { _ = ParseWatermarks(slots[:0], meta) }); n != 0 {
		t.Errorf("ParseWatermarks into spare capacity allocates %v times", n)
	}
}
