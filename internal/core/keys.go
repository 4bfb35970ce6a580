package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Object key scheme. H2 addresses every object through a namespace-
// decorated relative path (§3.1): hashing "N02::file1" on the consistent
// hashing ring locates file1 inside the directory whose namespace is N02
// in O(1) time. Keys are prefixed with the owning account so one cloud
// hosts many users' filesystems, mirroring Swift's account/container
// scoping.

// ringSuffix is the reserved child name under which a directory's
// NameRing object lives. Child names never contain '/', so it cannot
// collide with a real child.
const ringSuffix = "/NameRing/"

// ChildKey returns the object key of the child `name` inside the
// directory with namespace ns — the namespace-decorated relative path.
func ChildKey(account, ns, name string) string {
	return account + "|" + ns + "::" + name
}

// RingKey returns the object key of the NameRing of namespace ns.
func RingKey(account, ns string) string {
	return account + "|" + ns + "::" + ringSuffix
}

// PatchKey returns the object key of one NameRing patch, following the
// paper's naming: "N97::/NameRing/.Node01.Patch03 indicates the third
// patch of the namespace N97's NameRing, submitted by node 01" (§3.3.2).
//
// The layout is RingKey + ".Node%02d.Patch%06d" and is an on-store
// format. The key is built in one exactly sized buffer: it is made for
// every WRITE/MKDIR patch, every cold-load chain probe and every slot of
// GC's probe windows.
func PatchKey(account, ns string, node, seq int) string {
	var nb, sb [20]byte // room for any int, sign included
	n := appendPadded(nb[:0], node, 2)
	s := appendPadded(sb[:0], seq, 6)
	var b strings.Builder
	b.Grow(len(account) + len("|") + len(ns) + len("::") + len(ringSuffix) +
		len(".Node") + len(n) + len(".Patch") + len(s))
	b.WriteString(account)
	b.WriteByte('|')
	b.WriteString(ns)
	b.WriteString("::")
	b.WriteString(ringSuffix)
	b.WriteString(".Node")
	b.Write(n)
	b.WriteString(".Patch")
	b.Write(s)
	return b.String()
}

// appendPadded appends n in decimal, zero-padded to at least width
// characters — fmt's %0*d: a '-' counts toward the width and stays in
// front of the zeros.
func appendPadded(buf []byte, n, width int) []byte {
	var tmp [20]byte
	d := strconv.AppendInt(tmp[:0], int64(n), 10)
	if n < 0 {
		buf, d, width = append(buf, '-'), d[1:], width-1
	}
	for i := len(d); i < width; i++ {
		buf = append(buf, '0')
	}
	return append(buf, d...)
}

// RootKey returns the object key of the account's root record, which
// stores the namespace UUID of the user's root directory.
func RootKey(account string) string {
	return account + rootSuffix
}

// segmentInfix starts the child name of a chunked file's segments. It
// contains '/', which no child name may, so segments can never collide
// with sibling files.
const segmentInfix = "/slo/"

// SegmentKey returns the object key of segment i of the chunked file
// name in namespace ns: ChildKey's shape with the reserved name
// "/slo/<name>/%06d".
func SegmentKey(account, ns, name string, i int) string {
	var ib [20]byte
	d := appendPadded(ib[:0], i, 6)
	var b strings.Builder
	b.Grow(len(account) + len("|") + len(ns) + len("::") + len(segmentInfix) + len(name) + len("/") + len(d))
	b.WriteString(account)
	b.WriteByte('|')
	b.WriteString(ns)
	b.WriteString("::")
	b.WriteString(segmentInfix)
	b.WriteString(name)
	b.WriteByte('/')
	b.Write(d)
	return b.String()
}

// extentMarker starts the child name of every extent key: the ring
// suffix, then ".Extent".
const extentMarker = ringSuffix + ".Extent"

// ExtentKey returns the object key of one sub-ring extent. The shard
// count is part of the key, so a re-split to a different count writes to
// fresh keys and the flip from old to new extents stays atomic at the
// manifest object (e.g. "alice|N97::/NameRing/.Extent007-016" is extent 7
// of 16).
func ExtentKey(account, ns string, shard, shards int) string {
	buf := make([]byte, 0, len(account)+len(ns)+len(extentMarker)+2+8)
	buf = append(buf, account...)
	buf = append(buf, '|')
	buf = append(buf, ns...)
	buf = append(buf, "::"...)
	buf = append(buf, extentMarker...)
	buf = appendPadded(buf, shard, 3)
	buf = append(buf, '-')
	buf = appendPadded(buf, shards, 3)
	return string(buf)
}

const (
	rootSuffix    = "|/root"
	gcQueuePrefix = "/gcq/Node"
	// gcIndexAccount starts with '#', which ValidAccount rejects, so index
	// keys can never collide with any account's keyspace.
	gcIndexAccount = "#gc"
)

// GCQueueKey returns the object key of one queue entry, following the
// patch-chain naming discipline: per (account, node) sequences, so each
// middleware owns (and drains) the intents it enqueued.
func GCQueueKey(account string, node, seq int) string {
	return fmt.Sprintf("%s|%s%02d.Item%06d", account, gcQueuePrefix, node, seq)
}

// GCIndexKey returns the object key of one node's queue index.
func GCIndexKey(node int) string {
	return fmt.Sprintf("%s|Node%02d", gcIndexAccount, node)
}

// KeyKind is the shape of an object key: which builder made it. Zero is
// a string no builder makes.
type KeyKind uint8

const (
	KeyRoot    KeyKind = iota + 1 // RootKey
	KeyChild                      // ChildKey
	KeySegment                    // SegmentKey
	KeyRing                       // RingKey
	KeyPatch                      // PatchKey
	KeyExtent                     // ExtentKey
	KeyGCEntry                    // GCQueueKey
	KeyGCIndex                    // GCIndexKey
)

// NumKeyKinds sizes a table indexed by KeyKind, zero included.
const NumKeyKinds = KeyGCIndex + 1

var kindNames = [NumKeyKinds]string{"other", "root", "child", "segment", "ring", "patch", "extent", "gc-entry", "gc-index"}

// String names the kind after its builder; zero is "other".
func (k KeyKind) String() string { return kindNames[k] }

// Key is a parsed object key: its kind and the arguments its builder
// took. Fields a kind's builder does not take are zero.
type Key struct {
	Kind    KeyKind
	Account string
	NS      string
	Name    string // child and segment name
	Node    int    // patch, GC entry and GC index
	Seq     int    // patch and GC entry sequence; a segment's index
	Shard   int    // extent
	Shards  int    // extent
}

// KindOf classifies an object key from its separators and the prefixes
// after them, reading no number or name: the request table classifies
// every key the store is asked for. It returns ParseKey's Kind for every
// key ParseKey accepts; a malformed key may get the kind it mimics.
func KindOf(key string) KeyKind {
	kind, _, _, _ := cutKey(key)
	return kind
}

// cutKey is KindOf keeping what it cut: the account (none for a GC
// index) and, for a namespace-scoped kind, the namespace; rest follows
// "::" there and '|' elsewhere.
func cutKey(key string) (kind KeyKind, account, ns, rest string) {
	i := strings.IndexByte(key, '|')
	if i < 0 {
		return 0, "", "", ""
	}
	account, rest = key[:i], key[i+1:]
	switch {
	case account == gcIndexAccount:
		return KeyGCIndex, "", "", rest
	case rest == rootSuffix[1:]:
		return KeyRoot, account, "", rest
	case strings.HasPrefix(rest, gcQueuePrefix):
		return KeyGCEntry, account, "", rest
	}
	j := strings.Index(rest, "::")
	if j <= 0 {
		return 0, "", "", ""
	}
	ns, rest = rest[:j], rest[j+2:]
	kind = KeyChild
	switch {
	case rest == "" || rest[0] != '/': // a child; every reserved name starts with '/'
	case rest == ringSuffix:
		kind = KeyRing
	case strings.HasPrefix(rest, ringSuffix+".Node"):
		kind = KeyPatch
	case strings.HasPrefix(rest, extentMarker):
		kind = KeyExtent
	case strings.HasPrefix(rest, segmentInfix):
		kind = KeySegment
	}
	return kind, account, ns, rest
}

// ParseKey classifies an object key and recovers its builder's
// arguments; ok is false for any string no builder in this file makes.
// It starts from KindOf's walk, then reads what that kind carries.
// Numbers must be in the builder's zero-padded form, so a parsed key
// rebuilds to exactly the input, and an extent's shard is in range. It
// allocates nothing: DecodePatch runs it on every patch it loads.
func ParseKey(key string) (Key, bool) {
	kind, account, ns, rest := cutKey(key)
	k, ok := Key{Kind: kind, Account: account, NS: ns}, kind != 0
	switch kind {
	case KeyGCIndex:
		k.Node, _, ok = parseNums(rest, "Node", "", 2, 0)
	case KeyGCEntry:
		k.Node, k.Seq, ok = parseNums(rest, gcQueuePrefix, ".Item", 2, 6)
	case KeyPatch:
		k.Node, k.Seq, ok = parseNums(rest, ringSuffix+".Node", ".Patch", 2, 6)
	case KeyExtent:
		k.Shard, k.Shards, ok = parseNums(rest, extentMarker, "-", 3, 3)
		ok = ok && k.Shard >= 0 && k.Shards >= 2 && k.Shard < k.Shards
	case KeySegment:
		var idx string
		k.Name, idx, ok = strings.Cut(rest[len(segmentInfix):], "/")
		if ok = ok && k.Name != ""; ok {
			k.Seq, ok = parsePadded(idx, 6)
		}
	case KeyChild:
		k.Name, ok = rest, rest != "" && !strings.Contains(rest, "/")
	}
	if !ok {
		return Key{}, false
	}
	return k, true
}

// parseNums reads prefix+A, or prefix+A+sep+B when sep is set, where A
// and B were written by appendPadded at widths wa and wb.
func parseNums(s, prefix, sep string, wa, wb int) (a, b int, ok bool) {
	if s, ok = strings.CutPrefix(s, prefix); !ok {
		return 0, 0, false
	}
	if sep != "" {
		var bs string
		if s, bs, ok = strings.Cut(s, sep); !ok {
			return 0, 0, false
		}
		if b, ok = parsePadded(bs, wb); !ok {
			return 0, 0, false
		}
	}
	a, ok = parsePadded(s, wa)
	return a, b, ok
}

// parsePadded is appendPadded's inverse: it accepts only the exact
// string appendPadded(nil, n, width) would write.
func parsePadded(s string, width int) (int, bool) {
	d := strings.TrimPrefix(s, "-")
	if d == "" || len(d) > 18 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(d); i++ {
		if d[i] < '0' || d[i] > '9' {
			return 0, false
		}
		n = n*10 + int(d[i]-'0')
	}
	if len(d) < len(s) {
		n = -n
	}
	var buf [24]byte
	return n, string(appendPadded(buf[:0], n, width)) == s
}

// ValidAccount reports whether an account name is usable in object keys:
// non-empty, ASCII letters/digits/dash/underscore only.
func ValidAccount(account string) bool {
	if account == "" {
		return false
	}
	for _, c := range account {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// ValidChildName reports whether a name may appear as a path component:
// non-empty, no '/', not "." or "..".
func ValidChildName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsRune(name, '/')
}
