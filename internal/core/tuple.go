// Package core implements the Hierarchical Hash (H2) data structure of the
// paper's §3: NameRings, their tuples, the patch format, the NameRing
// merging algorithm, and the Formatter that stringifies them into objects.
//
// A NameRing is the per-directory structure that "goes through all the
// direct children of the directory by recording their names" (§3.1) as a
// list of (child, timestamp) tuples. Deletion is "fake" (§3.3.3): a
// Deleted tag is appended and the tuple overrides its predecessor by
// timestamp. The paper really removes a tombstone once the NameRing is in
// use; here it is kept, because a stale copy of the live tuple that
// another middleware still caches would bring the child back once the
// tombstone that beats it is gone. A ring changes only by merge, and
// merging is last-writer-wins per child, which makes a NameRing a
// convergent replicated structure: merge is commutative, associative and
// idempotent — the properties the asynchronous maintenance protocol
// (§3.3.2) relies on for eventual consistency.
package core

// Tuple is one NameRing entry: the (child_i, t_i) pair of §3.1, extended
// with the Deleted tag of §3.3.2, a directory marker, and — for directory
// children — the child's namespace UUID. Carrying the namespace in the
// tuple is what lets H2 "use the name of an L1 directory to locate the
// NameRing of the L2 directory" (§3.2): each level's NameRing hands the
// walker the namespace it needs to hash for the next level.
type Tuple struct {
	Name    string // child file or directory name (one path component)
	Time    int64  // creation/deletion UNIX timestamp in nanoseconds
	Deleted bool   // fake-deletion tombstone
	Dir     bool   // child is a directory
	Chunked bool   // child is a chunked (large object) file with segments
	NS      string // namespace UUID of the child directory; empty for files
}

// Wins reports whether t overrides o when both describe the same child in
// a merge: "the one that has a larger timestamp will override the other"
// (§3.3.2). Ties are broken deterministically — tombstone first, then the
// directory bit, then the namespace string — so that merging stays
// commutative under equal timestamps.
func (t Tuple) Wins(o Tuple) bool {
	if t.Time != o.Time {
		return t.Time > o.Time
	}
	if t.Deleted != o.Deleted {
		return t.Deleted
	}
	if t.Dir != o.Dir {
		return t.Dir
	}
	if t.Chunked != o.Chunked {
		return t.Chunked
	}
	if t.NS != o.NS {
		return t.NS > o.NS
	}
	return false
}
