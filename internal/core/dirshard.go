package core

import (
	"bytes"
	"fmt"
	"strconv"
)

// Sharded directory rings. A giant directory's NameRing is split into
// hash-partitioned sub-ring extents once its live-tuple count crosses the
// deployment's DirShardThreshold: the object at the directory's RingKey
// becomes a small manifest (the H2DRX codec below) recording how many
// extents exist, and each extent — an ordinary NameRing object holding the
// tuples whose child-name hash routes to it — lives at a derived key next
// to the patch chain. Per-patch write amplification drops from O(m) to
// O(m/shards) because a flush rewrites only the extents holding changed
// tuples, while readers fan out over all extents in one batched window.
//
// Routing is by FNV-1a over the child name, so a tuple's extent is a pure
// function of (name, shard count): every node, the scrubber, and the
// inspector agree on placement without coordination. The hash is part of
// the on-disk format — see TestShardOfPinned — and must never change.

// manifestMagic is the first line of a shard-manifest object. The object
// lives at the directory's RingKey, so decoders distinguish a sharded
// directory from a monolithic one by this magic alone.
const manifestMagic = "H2DRX/1"

// MaxDirShards bounds the extent count a manifest may record; the
// three-digit extent key format and the batched fan-out window both rely
// on it.
const MaxDirShards = 512

// ShardManifest is a directory ring's stored layout: how many extents hold
// its tuples, and the split generation. Shards == 1 is the monolithic
// layout — one extent, which is the object at RingKey itself, and no
// manifest object; that is what DecodeLayout reports for a plain ring and
// the only case the methods below treat apart. With more extents the object
// at RingKey is the encoded manifest and extent i lives at the derived key
// ExtentKey(account, ns, i, Shards), so the manifest stays O(1) bytes no
// matter how big the directory grows.
type ShardManifest struct {
	Shards int   // number of extents: 1, or in [2, MaxDirShards] when stored as a manifest
	Gen    int64 // split generation, bumped on every shards-count transition
}

// DecodeLayout reads the layout off the object stored at a directory's
// RingKey: a manifest's own, or the monolithic one when the object is the
// ring itself. It is the dispatch every reader of that object starts with.
func DecodeLayout(head []byte) (ShardManifest, error) {
	if !IsShardManifest(head) {
		return ShardManifest{Shards: 1}, nil
	}
	return DecodeShardManifest(head)
}

// Key returns the store key of extent i of the layout.
func (l ShardManifest) Key(account, ns string, i int) string {
	if l.Shards == 1 {
		return RingKey(account, ns)
	}
	return ExtentKey(account, ns, i, l.Shards)
}

// Keys returns the store keys of the given extents, in order — what a
// reader fans a batched MultiGet or MultiHead over.
func (l ShardManifest) Keys(account, ns string, which []int) []string {
	keys := make([]string, len(which))
	for i, s := range which {
		keys[i] = l.Key(account, ns, s)
	}
	return keys
}

// All lists every extent index of the layout.
func (l ShardManifest) All() []int {
	all := make([]int, l.Shards)
	for i := range all {
		all[i] = i
	}
	return all
}

// Extents returns the keys of the objects the layout occupies besides the
// one at RingKey — what GC and the scrubber claim with the directory, and
// what a transition away from the layout collects. A monolithic layout has
// none.
func (l ShardManifest) Extents(account, ns string) []string {
	if l.Shards == 1 {
		return nil
	}
	return l.Keys(account, ns, l.All())
}

// EncodeShardManifest packs a manifest into its ASCII object form.
func EncodeShardManifest(m ShardManifest) []byte {
	buf := make([]byte, 0, len(manifestMagic)+40)
	buf = append(buf, manifestMagic...)
	buf = append(buf, "\nshards="...)
	buf = strconv.AppendInt(buf, int64(m.Shards), 10)
	buf = append(buf, "\ngen="...)
	buf = strconv.AppendInt(buf, m.Gen, 10)
	buf = append(buf, '\n')
	return buf
}

// DecodeShardManifest parses the output of EncodeShardManifest. It works
// on the raw byte slice — no string conversion, no allocation on the
// success path — because every ring read of a sharded directory passes
// through here (the hotpath row codec/decode-manifest holds it to zero).
func DecodeShardManifest(data []byte) (ShardManifest, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || string(data[:nl]) != manifestMagic {
		return ShardManifest{}, fmt.Errorf("core: not a shard manifest (bad magic)")
	}
	rest := data[nl+1:]
	var m ShardManifest
	for len(rest) > 0 {
		var line []byte
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		} else {
			line, rest = rest, nil
		}
		if len(line) == 0 {
			continue
		}
		eq := bytes.IndexByte(line, '=')
		if eq < 0 {
			return ShardManifest{}, fmt.Errorf("core: shard manifest line malformed: %q", line)
		}
		key, val := line[:eq], line[eq+1:]
		switch {
		case string(key) == "shards":
			n, ok := parseManifestInt(val)
			if !ok {
				return ShardManifest{}, fmt.Errorf("core: shard manifest bad shards %q", val)
			}
			m.Shards = int(n)
		case string(key) == "gen":
			g, ok := parseManifestInt(val)
			if !ok {
				return ShardManifest{}, fmt.Errorf("core: shard manifest bad gen %q", val)
			}
			m.Gen = g
		default:
			return ShardManifest{}, fmt.Errorf("core: shard manifest unknown field %q", key)
		}
	}
	if m.Shards < 2 || m.Shards > MaxDirShards {
		return ShardManifest{}, fmt.Errorf("core: shard manifest shards %d out of range [2, %d]", m.Shards, MaxDirShards)
	}
	return m, nil
}

// parseManifestInt parses a canonical non-negative decimal — exactly what
// EncodeShardManifest emits. Signs, blanks, and overflow-length runs are
// rejected, so gen can never decode negative.
func parseManifestInt(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// IsShardManifest reports whether object data looks like an encoded shard
// manifest; DecodeLayout is the dispatch built on it.
func IsShardManifest(data []byte) bool {
	return len(data) > len(manifestMagic) &&
		data[len(manifestMagic)] == '\n' &&
		string(data[:len(manifestMagic)]) == manifestMagic
}

// ShardOf routes a child name to its extent: FNV-1a over the name, modulo
// the shard count. shards <= 1 always routes to 0 (the monolithic case).
// The function is pinned by TestShardOfPinned: changing it would strand
// every tuple already stored in a sharded directory in the wrong extent.
func ShardOf(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(fnv1a(2166136261, name) % uint32(shards))
}

// RingHash is the 32-bit FNV-1a of RingKey(account, ns), computed over the
// key's pieces so a caller that only hashes the key never builds it.
func RingHash(account, ns string) uint32 {
	h := fnv1a(fnv1a(fnv1a(2166136261, account), "|"), ns)
	return fnv1a(h, "::"+ringSuffix)
}

// fnv1a folds s into the 32-bit FNV-1a state h.
func fnv1a(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// MergedExtents folds a sharded directory's decoded extents into one
// ring. Extents partition the name space, so the merge never sees the
// same child twice; nil slots (a missing or torn extent the caller chose
// to tolerate) are skipped. The result is sized once: every merge after
// the first only moves tuples apart to make room.
func MergedExtents(extents []*NameRing) *NameRing {
	n := 0
	for _, e := range extents {
		if e != nil {
			n += e.TotalLen()
		}
	}
	out := &NameRing{tuples: make([]Tuple, 0, n)}
	for _, e := range extents {
		out.Merge(e)
	}
	return out
}
