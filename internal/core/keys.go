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
	return account + "|/root"
}

// ParsePatchKey extracts the node number and patch sequence from a patch
// object key.
func ParsePatchKey(key string) (node, seq int, err error) {
	i := strings.LastIndex(key, ".Node")
	if i < 0 {
		return 0, 0, fmt.Errorf("core: %q is not a patch key", key)
	}
	rest := key[i+len(".Node"):]
	nodeStr, seqPart, ok := strings.Cut(rest, ".Patch")
	if !ok {
		return 0, 0, fmt.Errorf("core: %q is not a patch key", key)
	}
	node, err = strconv.Atoi(nodeStr)
	if err != nil {
		return 0, 0, fmt.Errorf("core: bad node in patch key %q: %w", key, err)
	}
	seq, err = strconv.Atoi(seqPart)
	if err != nil {
		return 0, 0, fmt.Errorf("core: bad sequence in patch key %q: %w", key, err)
	}
	return node, seq, nil
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
