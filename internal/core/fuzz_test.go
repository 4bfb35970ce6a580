package core

import (
	"bytes"
	"testing"
)

// FuzzDecodeNameRing: decoding must never panic, and anything that
// decodes must re-encode/decode to the same ring (the Formatter is a
// bijection on valid objects).
func FuzzDecodeNameRing(f *testing.F) {
	r := NewNameRing()
	r.Set(Tuple{Name: "cat", Time: 100})
	r.Set(Tuple{Name: "dir", Time: 200, Dir: true, NS: "01.02.3"})
	r.Set(Tuple{Name: "gone", Time: 300, Deleted: true})
	f.Add(EncodeNameRing(r))
	f.Add(EncodeNameRing(NewNameRing()))
	f.Add([]byte("H2NR/1\n\"x\"\t1\t-\t-\n"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ring, err := DecodeNameRing(data)
		if err != nil {
			return
		}
		re := EncodeNameRing(ring)
		ring2, err := DecodeNameRing(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v\nencoded: %q", err, re)
		}
		if !ring2.Equal(ring) {
			t.Fatalf("re-decode not equal")
		}
		if !bytes.Equal(EncodeNameRing(ring2), re) {
			t.Fatalf("encoding not canonical")
		}
	})
}

// FuzzDecodeDir: directory-object decoding must never panic and valid
// objects must round-trip.
func FuzzDecodeDir(f *testing.F) {
	f.Add(EncodeDir(DirObject{NS: "06.01.1469346604539", Name: "home", Created: 1}))
	f.Add([]byte("H2DIR/1\nns=1.1.1\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDir(data)
		if err != nil {
			return
		}
		d2, err := DecodeDir(EncodeDir(d))
		if err != nil || d2 != d {
			t.Fatalf("round trip: %+v vs %+v (%v)", d2, d, err)
		}
	})
}

// FuzzDecodeShardManifest: manifest decoding must never panic, anything
// that decodes must round-trip canonically, and nothing may decode as
// both a manifest and a NameRing (the RingKey dispatch relies on the
// magics being disjoint).
func FuzzDecodeShardManifest(f *testing.F) {
	f.Add(EncodeShardManifest(ShardManifest{Shards: 16, Gen: 3}))
	f.Add(EncodeShardManifest(ShardManifest{Shards: 2, Gen: 0}))
	f.Add([]byte("H2DRX/1\nshards=512\ngen=99\n"))
	f.Add([]byte("H2NR/1\n"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeShardManifest(data)
		if err != nil {
			return
		}
		re := EncodeShardManifest(m)
		m2, err := DecodeShardManifest(re)
		if err != nil || m2 != m {
			t.Fatalf("round trip: %+v vs %+v (%v)", m2, m, err)
		}
		if _, err := DecodeNameRing(data); err == nil {
			t.Fatalf("object decodes as both manifest and ring: %q", data)
		}
	})
}

// FuzzParseKey: key parsing never panics, every parsed key rebuilds
// through its kind's builder to exactly the input, KindOf gives it the
// same kind, and an extent's shard is in range.
func FuzzParseKey(f *testing.F) {
	for _, k := range keyTable {
		f.Add(k.key)
	}
	for _, bad := range lookAlikes {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, key string) {
		k, ok := ParseKey(key)
		if !ok {
			if k != (Key{}) {
				t.Fatalf("rejected %q with a non-zero key %+v", key, k)
			}
			return
		}
		if got := rebuildKey(k); got != key {
			t.Fatalf("ParseKey(%q) = %+v, which rebuilds to %q", key, k, got)
		}
		if got := KindOf(key); got != k.Kind {
			t.Fatalf("KindOf(%q) = %v, ParseKey says %v", key, got, k.Kind)
		}
		if k.Kind == KeyExtent && (k.Shard < 0 || k.Shards < 2 || k.Shard >= k.Shards) {
			t.Fatalf("ParseKey(%q): extent %d/%d out of range", key, k.Shard, k.Shards)
		}
	})
}

// FuzzParseExtentKey: a key ParseKey reads as an extent rebuilds through
// ExtentKey to exactly the input.
func FuzzParseExtentKey(f *testing.F) {
	f.Add(ExtentKey("alice", "N97", 7, 16))
	f.Add("junk")
	f.Add("a|n::/NameRing/.Extent-1-16")
	f.Fuzz(func(t *testing.T, key string) {
		k, ok := ParseKey(key)
		if !ok || k.Kind != KeyExtent {
			return
		}
		if got := ExtentKey(k.Account, k.NS, k.Shard, k.Shards); got != key {
			t.Fatalf("ParseKey(%q) = %+v, which rebuilds to %q", key, k, got)
		}
	})
}

// FuzzParsePatchKey: a key ParseKey reads as a patch rebuilds through
// PatchKey to exactly the input.
func FuzzParsePatchKey(f *testing.F) {
	f.Add(PatchKey("alice", "N97", 1, 3))
	f.Add("junk")
	f.Add("a|n::/NameRing/.Node-1.Patch-2")
	f.Fuzz(func(t *testing.T, key string) {
		k, ok := ParseKey(key)
		if !ok || k.Kind != KeyPatch {
			return
		}
		if got := PatchKey(k.Account, k.NS, k.Node, k.Seq); got != key {
			t.Fatalf("ParseKey(%q) = %+v, which rebuilds to %q", key, k, got)
		}
	})
}
