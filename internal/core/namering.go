package core

import (
	"slices"
	"strings"
)

// NameRing maintains the direct children of one directory (§3.1). The
// zero value is not usable; call NewNameRing. NameRing is not safe for
// concurrent use: the maintenance module serializes access through the
// per-NameRing File Descriptor (§4.5).
type NameRing struct {
	children map[string]Tuple
}

// NewNameRing returns an empty NameRing.
func NewNameRing() *NameRing {
	return &NameRing{children: make(map[string]Tuple)}
}

// newNameRingCap returns an empty NameRing pre-sized for n children, so
// hot paths that know the final size (decode, merge) avoid incremental
// map growth.
func newNameRingCap(n int) *NameRing {
	return &NameRing{children: make(map[string]Tuple, n)}
}

// Set stores the tuple unconditionally, replacing any entry for the same
// child. Local authoritative operations (the submitting middleware) use
// Set; merges use Update.
func (r *NameRing) Set(t Tuple) {
	r.children[t.Name] = t
}

// Update applies the tuple with merge semantics: it is stored only if no
// entry exists for the child or if it wins by timestamp. It reports
// whether the ring changed.
func (r *NameRing) Update(t Tuple) bool {
	old, ok := r.children[t.Name]
	if ok && !t.Wins(old) {
		return false
	}
	r.children[t.Name] = t
	return true
}

// Get returns the tuple recorded for a child, including tombstones.
func (r *NameRing) Get(name string) (Tuple, bool) {
	t, ok := r.children[name]
	return t, ok
}

// Has reports whether the child exists and is not fake-deleted.
func (r *NameRing) Has(name string) bool {
	t, ok := r.children[name]
	return ok && !t.Deleted
}

func tupleNameCmp(a, b Tuple) int { return strings.Compare(a.Name, b.Name) }

// Live returns the non-deleted tuples sorted alphabetically by name, the
// order the Formatter packs them in (§4.4).
func (r *NameRing) Live() []Tuple {
	return r.AppendLive(make([]Tuple, 0, len(r.children)))
}

// AppendLive appends the non-deleted tuples, sorted by name, to dst and
// returns the extended slice. Callers on the hot path pass a reusable
// scratch slice to avoid the per-call allocation of Live.
func (r *NameRing) AppendLive(dst []Tuple) []Tuple {
	start := len(dst)
	if free := cap(dst) - start; free < len(r.children) {
		grown := make([]Tuple, start, start+len(r.children))
		copy(grown, dst)
		dst = grown
	}
	for _, t := range r.children {
		if !t.Deleted {
			dst = append(dst, t)
		}
	}
	slices.SortFunc(dst[start:], tupleNameCmp)
	return dst
}

// All returns every tuple — tombstones included — sorted by name.
func (r *NameRing) All() []Tuple {
	return r.AppendAll(make([]Tuple, 0, len(r.children)))
}

// AppendAll appends every tuple — tombstones included — sorted by name,
// to dst and returns the extended slice. The zero-alloc sibling of All.
func (r *NameRing) AppendAll(dst []Tuple) []Tuple {
	start := len(dst)
	if free := cap(dst) - start; free < len(r.children) {
		grown := make([]Tuple, start, start+len(r.children))
		copy(grown, dst)
		dst = grown
	}
	for _, t := range r.children {
		dst = append(dst, t)
	}
	slices.SortFunc(dst[start:], tupleNameCmp)
	return dst
}

// Len reports the number of live (non-deleted) children.
func (r *NameRing) Len() int {
	n := 0
	for _, t := range r.children {
		if !t.Deleted {
			n++
		}
	}
	return n
}

// TotalLen reports the number of tuples including tombstones.
func (r *NameRing) TotalLen() int { return len(r.children) }

// Version returns the largest tuple timestamp in the ring; the gossip
// protocol advertises it as the ring's update time t_k (§3.3.2).
func (r *NameRing) Version() int64 {
	var v int64
	for _, t := range r.children {
		if t.Time > v {
			v = t.Time
		}
	}
	return v
}

// Merge folds other into r using the NameRing merging algorithm of
// §3.3.2: for each child of the incoming ring, a child present in both
// is overridden by the larger timestamp, and a child only present in the
// incoming ring is inserted. No child is ever removed by a merge. It
// reports how many entries changed.
func (r *NameRing) Merge(other *NameRing) int {
	return r.MergeFunc(other, nil)
}

// MergeFunc is Merge with a per-changed-tuple callback: sharded
// descriptors use it to record which children a merge actually altered,
// so a later flush rewrites only the extents holding them. A nil fn is
// allowed.
func (r *NameRing) MergeFunc(other *NameRing, fn func(Tuple)) int {
	if other == nil {
		return 0
	}
	changed := 0
	for _, t := range other.children {
		if r.Update(t) {
			changed++
			if fn != nil {
				fn(t)
			}
		}
	}
	return changed
}

// Merged returns a new ring equal to a merged with b, leaving both inputs
// untouched.
func Merged(a, b *NameRing) *NameRing {
	n := 0
	if a != nil {
		n += a.TotalLen()
	}
	if b != nil {
		n += b.TotalLen()
	}
	out := newNameRingCap(n)
	out.Merge(a)
	out.Merge(b)
	return out
}

// Compact "really" removes fake-deleted tuples whose timestamp is at or
// before horizon (§3.3.2 leaves this until the NameRing is in use, e.g.
// during MOVE or LIST). Tombstones newer than the horizon are kept so
// that in-flight patches from other nodes cannot resurrect the child. It
// reports how many tombstones were dropped.
func (r *NameRing) Compact(horizon int64) int {
	return r.CompactFunc(horizon, nil)
}

// CompactFunc is Compact with a per-dropped-tombstone callback: sharded
// flushes use it to mark the extent of every removed tuple dirty, so the
// store copy of that extent is rewritten without its tombstone instead of
// silently keeping it. A nil fn is allowed.
func (r *NameRing) CompactFunc(horizon int64, fn func(Tuple)) int {
	dropped := 0
	for name, t := range r.children {
		if t.Deleted && t.Time <= horizon {
			delete(r.children, name)
			dropped++
			if fn != nil {
				fn(t)
			}
		}
	}
	return dropped
}

// Clone returns a deep copy.
func (r *NameRing) Clone() *NameRing {
	out := &NameRing{children: make(map[string]Tuple, len(r.children))}
	for name, t := range r.children {
		out.children[name] = t
	}
	return out
}

// Equal reports whether two rings hold exactly the same tuples.
func (r *NameRing) Equal(other *NameRing) bool {
	if len(r.children) != len(other.children) {
		return false
	}
	for name, t := range r.children {
		if ot, ok := other.children[name]; !ok || ot != t {
			return false
		}
	}
	return true
}
