package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
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

// extentRing is a ring of n tuples whose names start with prefix, with
// every extent of shards encoded on its own through EncodeNameRing, the
// path that shares no scratch with EncodeNameRingExtents.
func extentRing(prefix string, n, shards int) (*NameRing, [][]byte) {
	r := NewNameRing()
	parts := make([]*NameRing, shards)
	for s := range parts {
		parts[s] = NewNameRing()
	}
	for i := 0; i < n; i++ {
		tp := Tuple{Name: fmt.Sprintf("%s%04d", prefix, i), Time: int64(i + 1), Deleted: i%5 == 0}
		r.Set(tp)
		parts[ShardOf(tp.Name, shards)].Set(tp)
	}
	want := make([][]byte, shards)
	for s, p := range parts {
		want[s] = EncodeNameRing(p)
	}
	return r, want
}

// The encoder's pooled scratch carries nothing from one call into the
// next and is never shared by calls in flight: two different rings
// encoded back to back, then eight rings from eight goroutines, each come
// out as their own fresh encode, compared after the later calls ran.
func TestEncodeExtentsReusesScratch(t *testing.T) {
	const shards = 8
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	check := func(label string, got, want [][]byte) {
		t.Helper()
		for s := range want {
			if !bytes.Equal(got[s], want[s]) {
				t.Errorf("%s: extent %d differs from its fresh encode (%d bytes, want %d)", label, s, len(got[s]), len(want[s]))
				return
			}
		}
	}
	a, wantA := extentRing("a", 300, shards)
	b, wantB := extentRing("b", 40, shards)
	for i := 0; i < 4; i++ {
		gotA := EncodeNameRingExtents(a, shards, all)
		gotB := EncodeNameRingExtents(b, shards, all)
		check("first ring", gotA, wantA)
		check("second ring", gotB, wantB)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		r, want := extentRing(fmt.Sprintf("g%d-", g), 50+40*g, shards)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				check(fmt.Sprintf("goroutine %d", g), EncodeNameRingExtents(r, shards, all), want)
			}
		}()
	}
	wg.Wait()
}

// The scratch goes back to the pool holding no name: one GC moves the
// pool's contents to its victim cache, where a name the scratch still
// held would live on, so a name only the encoded ring held must be freed
// by that GC.
func TestEncodeExtentsPinsNoName(t *testing.T) {
	freed := make(chan struct{})
	encodeWatchedName(freed)
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("a name survived a GC after its ring was dropped: the pooled scratch still holds it")
	}
}

// encodeWatchedName encodes a ring whose one name lives in its own
// allocation, which closes freed when collected.
//
//go:noinline
func encodeWatchedName(freed chan struct{}) {
	buf := make([]byte, 64)
	copy(buf, "watched")
	runtime.SetFinalizer(&buf[0], func(*byte) { close(freed) })
	r := NewNameRing()
	r.Set(Tuple{Name: unsafe.String(&buf[0], len(buf)), Time: 1})
	EncodeNameRingExtents(r, 4, []int{0, 1, 2, 3})
}

func TestMergedExtentsSkipsNil(t *testing.T) {
	a := NewNameRing()
	a.Set(Tuple{Name: "x", Time: 1})
	got := MergedExtents([]*NameRing{nil, a, nil})
	if got.TotalLen() != 1 {
		t.Fatalf("TotalLen = %d", got.TotalLen())
	}
}
