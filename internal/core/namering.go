package core

import "slices"

// NameRing maintains the direct children of one directory (§3.1). The
// zero value is not usable; call NewNameRing. NameRing is not safe for
// concurrent use: the maintenance module serializes access through the
// per-NameRing File Descriptor (§4.5).
//
// That holds for the ordered reads too (Live, All, AppendAll, Range and
// the encoders): the first one builds the ring's name index and every
// later one may fold newly added names into it, so an ordered read
// mutates the ring. Every *NameRing is either owned by one goroutine or
// read under its descriptor's monitor; a ring shared without either must
// not be read in order.
type NameRing struct {
	children map[string]Tuple
	idx      *nameIndex
}

// nameIndex is the alphabetical order of a ring's child names (§4.4 keeps
// the stored ring sorted; this keeps the in-memory one sorted as well). It
// holds names only — tuples stay in the map, so overwriting or
// tombstoning a child never touches it. order is sorted; fresh holds the
// names added to the map since order was last brought up to date, in
// arrival order. Between them they hold every key of the map exactly once.
type nameIndex struct {
	order, fresh []string
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
	if r.idx != nil {
		if _, ok := r.children[t.Name]; !ok {
			r.idx.fresh = append(r.idx.fresh, t.Name)
		}
	}
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
	if !ok && r.idx != nil {
		r.idx.fresh = append(r.idx.fresh, t.Name)
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

// names returns every child name in alphabetical order, the order the
// Formatter packs tuples in (§4.4). The first call sorts the map's keys;
// later calls sort only the names added since and merge them into the
// order in place, from the back — O(m + k log k) for k new names, and no
// allocation once the order has grown to its size.
func (r *NameRing) names() []string {
	if r.idx == nil {
		// The index built here and the one loaded below stay in different
		// variables: one variable both loaded from and stored to r.idx would
		// make r's fields flow back into r, and a stack-allocated ring (the
		// one-tuple patch of every WRITE) would move to the heap.
		order := make([]string, 0, len(r.children))
		for name := range r.children {
			order = append(order, name)
		}
		slices.Sort(order)
		r.idx = &nameIndex{order: order}
		return order
	}
	x := r.idx
	if len(x.fresh) == 0 {
		return x.order
	}
	slices.Sort(x.fresh)
	i, j := len(x.order)-1, len(x.fresh)-1
	x.order = append(x.order, x.fresh...)
	for k := len(x.order) - 1; j >= 0; k-- {
		if i >= 0 && x.order[i] > x.fresh[j] {
			x.order[k] = x.order[i]
			i--
		} else {
			x.order[k] = x.fresh[j]
			j--
		}
	}
	clear(x.fresh)
	x.fresh = x.fresh[:0]
	return x.order
}

// Live returns the non-deleted tuples sorted alphabetically by name.
func (r *NameRing) Live() []Tuple {
	out := make([]Tuple, 0, len(r.children))
	for _, name := range r.names() {
		if t := r.children[name]; !t.Deleted {
			out = append(out, t)
		}
	}
	return out
}

// All returns every tuple — tombstones included — sorted by name.
func (r *NameRing) All() []Tuple {
	return r.AppendAll(make([]Tuple, 0, len(r.children)))
}

// AppendAll appends every tuple — tombstones included — sorted by name,
// to dst and returns the extended slice. The zero-alloc sibling of All.
func (r *NameRing) AppendAll(dst []Tuple) []Tuple {
	if len(r.children) <= 1 {
		// At most one tuple: any iteration order is the sorted one, so no
		// index is built — the one-tuple patch ring of every WRITE would
		// pay two allocations for it.
		for _, t := range r.children {
			dst = append(dst, t)
		}
		return dst
	}
	dst = slices.Grow(dst, len(r.children))
	for _, name := range r.names() {
		dst = append(dst, r.children[name])
	}
	return dst
}

// Range calls fn for every tuple — tombstones included — whose name sorts
// strictly after marker, in name order, until fn returns false; no name
// sorts before the empty marker. A page of a listing is cut out of the
// ring this way: it costs the page's length (plus a binary search), not
// the directory's.
func (r *NameRing) Range(marker string, fn func(Tuple) bool) {
	order := r.names()
	lo, found := slices.BinarySearch(order, marker)
	if found {
		lo++
	}
	for _, name := range order[lo:] {
		if !fn(r.children[name]) {
			return
		}
	}
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
			r.idx = nil // a name left the map: rebuild the order on the next ordered read
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
