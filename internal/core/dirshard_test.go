package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestShardManifestRoundTrip(t *testing.T) {
	for _, m := range []ShardManifest{
		{Shards: 2, Gen: 0},
		{Shards: 16, Gen: 3},
		{Shards: MaxDirShards, Gen: 1 << 40},
	} {
		data := EncodeShardManifest(m)
		if !IsShardManifest(data) {
			t.Fatalf("IsShardManifest(%q) = false", data)
		}
		got, err := DecodeShardManifest(data)
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip %+v -> %+v", m, got)
		}
	}
}

// TestShardManifestGolden pins the exact H2DRX/1 wire format. A sharded
// directory written by one build must decode on every other, so this
// encoding may only ever be extended, never changed.
func TestShardManifestGolden(t *testing.T) {
	got := string(EncodeShardManifest(ShardManifest{Shards: 16, Gen: 3}))
	want := "H2DRX/1\nshards=16\ngen=3\n"
	if got != want {
		t.Fatalf("EncodeShardManifest = %q, want %q", got, want)
	}
}

func TestShardManifestDecodeErrors(t *testing.T) {
	cases := []string{
		"",
		"H2NR/1\n",
		"H2DRX/1",                       // no newline after magic
		"H2DRX/1\nshards=1\ngen=0\n",    // below minimum
		"H2DRX/1\nshards=9999\ngen=0\n", // above maximum
		"H2DRX/1\nshards=16\ngen=-1\n",
		"H2DRX/1\nshards=16\ngen=x\n",
		"H2DRX/1\nshards=x\ngen=0\n",
		"H2DRX/1\nbogus\n",
		"H2DRX/1\nshards=16\ngen=0\nextra=1\n",
	}
	for _, c := range cases {
		if _, err := DecodeShardManifest([]byte(c)); err == nil {
			t.Errorf("DecodeShardManifest(%q) accepted", c)
		}
	}
}

func TestIsShardManifestRejectsRing(t *testing.T) {
	ring := EncodeNameRing(NewNameRing())
	if IsShardManifest(ring) {
		t.Fatalf("ring object misdetected as manifest: %q", ring)
	}
	if IsShardManifest([]byte("H2DRX/10\n")) {
		t.Fatal("H2DRX/10 misdetected as H2DRX/1")
	}
}

// TestShardOfPinned pins the FNV-1a routing to known values. These
// constants are part of the on-disk format: a tuple stored in extent
// ShardOf(name, shards) is only found again if every build computes the
// same number.
func TestShardOfPinned(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		want   int
	}{
		{"", 16, 5},       // FNV offset basis 2166136261 % 16
		{"a", 16, refA16}, // computed below for self-consistency
		{"file1", 16, 6},
		{"file1", 4, 2},
		{"child000042", 16, 11},
		{"projects", 8, 7},
		{"проект", 16, 5}, // routing is byte-wise, multi-byte safe
	}
	for _, c := range cases {
		if got := ShardOf(c.name, c.shards); got != c.want {
			t.Errorf("ShardOf(%q, %d) = %d, want %d", c.name, c.shards, got, c.want)
		}
	}
	if got := ShardOf("anything", 1); got != 0 {
		t.Errorf("ShardOf(_, 1) = %d, want 0", got)
	}
	if got := ShardOf("anything", 0); got != 0 {
		t.Errorf("ShardOf(_, 0) = %d, want 0", got)
	}
}

// refA16 spells out the reference FNV-1a computation once, so the pinned
// table above cannot drift together with a broken implementation.
var refA16 = func() int {
	h := uint32(2166136261)
	h ^= 'a'
	h *= 16777619
	return int(h % 16)
}()

func TestExtentKeyRoundTrip(t *testing.T) {
	key := ExtentKey("alice", "N97", 7, 16)
	if want := "alice|N97::/NameRing/.Extent007-016"; key != want {
		t.Fatalf("ExtentKey = %q, want %q", key, want)
	}
	if k, ok := ParseKey(key); !ok || k != (Key{Kind: KeyExtent, Account: "alice", NS: "N97", Shard: 7, Shards: 16}) {
		t.Fatalf("ParseKey = %+v, %v", k, ok)
	}
	for _, bad := range []string{
		"alice|N97::/NameRing/",
		"alice|N97::/NameRing/.Node01.Patch000003",
		"alice|N97::/NameRing/.Extent016-016", // shard >= shards
		"alice|N97::/NameRing/.Extent000-001", // count below minimum
		"alice|N97::/NameRing/.Extentxx-016",
	} {
		if k, ok := ParseKey(bad); ok && k.Kind == KeyExtent {
			t.Errorf("ParseKey(%q) = %+v, an extent", bad, k)
		}
	}
	if strings.Contains(key, ".Node") {
		t.Error("extent key collides with the patch key marker")
	}
}

// TestExtentKeysDerivation: a layout derives its own keys. Extent i of n > 1 lives at
// ExtentKey; the one extent of the monolithic layout is the object at
// RingKey, which therefore has no extent objects beside it.
func TestExtentKeysDerivation(t *testing.T) {
	four := ShardManifest{Shards: 4, Gen: 2}
	keys := four.Extents("a", "N1")
	if len(keys) != 4 || !reflect.DeepEqual(keys, four.Keys("a", "N1", four.All())) {
		t.Fatalf("Extents = %q", keys)
	}
	for i, k := range keys {
		pk, ok := ParseKey(k)
		if !ok || pk.Kind != KeyExtent || pk.Shard != i || pk.Shards != 4 || k != four.Key("a", "N1", i) {
			t.Fatalf("keys[%d] = %q (%+v)", i, k, pk)
		}
	}
	if got := four.Keys("a", "N1", []int{3, 1}); got[0] != keys[3] || got[1] != keys[1] {
		t.Fatalf("Keys({3, 1}) = %q", got)
	}
	mono := ShardManifest{Shards: 1}
	if got := mono.Keys("a", "N1", mono.All()); len(got) != 1 || got[0] != RingKey("a", "N1") {
		t.Fatalf("monolithic keys = %q, want the ring key alone", got)
	}
	if got := mono.Extents("a", "N1"); got != nil {
		t.Fatalf("monolithic Extents = %q, want none", got)
	}
}

// TestDecodeLayout: the object at RingKey names its own layout — a
// manifest's, or the monolithic one for anything that is not a manifest —
// and a torn manifest is an error, never a silent monolithic read.
func TestDecodeLayout(t *testing.T) {
	want := ShardManifest{Shards: 16, Gen: 3}
	if got, err := DecodeLayout(EncodeShardManifest(want)); err != nil || got != want {
		t.Fatalf("manifest layout = %+v, %v", got, err)
	}
	ring := NewNameRing()
	ring.Set(Tuple{Name: "f", Time: 1})
	if got, err := DecodeLayout(EncodeNameRing(ring)); err != nil || got != (ShardManifest{Shards: 1}) {
		t.Fatalf("ring layout = %+v, %v", got, err)
	}
	if _, err := DecodeLayout([]byte(manifestMagic + "\nshards=1\n")); err == nil {
		t.Fatal("a manifest claiming one shard decoded")
	}
}

// TestExtentPartition checks the load-bearing partition property: the
// extents of a ring are disjoint, cover every tuple (tombstones
// included), and each round-trips through the ordinary NameRing codec —
// and that asking the one-pass encoder for a subset, in any order, yields
// byte for byte the extents the full partition holds at those indices.
func TestExtentPartition(t *testing.T) {
	src := NewNameRing()
	for i := 0; i < 500; i++ {
		src.Set(Tuple{Name: fmt.Sprintf("child%04d", i), Time: int64(i + 1), Deleted: i%7 == 0})
	}
	const shards = 8
	all := make([]int, shards)
	for s := range all {
		all[s] = s
	}
	encoded := EncodeNameRingExtents(src, shards, all)
	decoded := make([]*NameRing, shards)
	total := 0
	for s, data := range encoded {
		ext, err := DecodeNameRing(data)
		if err != nil {
			t.Fatalf("extent %d: %v", s, err)
		}
		for _, tp := range ext.All() {
			if got := ShardOf(tp.Name, shards); got != s {
				t.Fatalf("tuple %q found in extent %d, routes to %d", tp.Name, s, got)
			}
		}
		total += ext.TotalLen()
		decoded[s] = ext
	}
	if total != src.TotalLen() {
		t.Fatalf("extents hold %d tuples, ring has %d", total, src.TotalLen())
	}
	merged := MergedExtents(decoded)
	if !merged.Equal(src) {
		t.Fatal("MergedExtents != source ring")
	}
	want := []int{6, 1, 3}
	for i, data := range EncodeNameRingExtents(src, shards, want) {
		if !bytes.Equal(data, encoded[want[i]]) {
			t.Fatalf("subset slot %d differs from extent %d of the full partition", i, want[i])
		}
	}
	if got := EncodeNameRingExtents(src, shards, nil); len(got) != 0 {
		t.Fatalf("no extents wanted, %d encoded", len(got))
	}
}

func TestMergedExtentsSkipsNil(t *testing.T) {
	a := NewNameRing()
	a.Set(Tuple{Name: "x", Time: 1})
	got := MergedExtents([]*NameRing{nil, a, nil})
	if got.TotalLen() != 1 {
		t.Fatalf("TotalLen = %d", got.TotalLen())
	}
}
