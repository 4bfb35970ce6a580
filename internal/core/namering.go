package core

import (
	"slices"
	"strings"
)

// NameRing maintains the direct children of one directory (§3.1) as the
// list the Formatter stores (§4.4): tuples sorted by name, each name once.
// The zero value is an empty ring. Reads never modify a ring, but a
// NameRing is not safe for a read concurrent with a write: the maintenance
// module serializes access through the per-NameRing File Descriptor (§4.5).
type NameRing struct {
	tuples []Tuple
}

// NewNameRing returns an empty NameRing.
func NewNameRing() *NameRing {
	return &NameRing{}
}

// RingOf returns the ring holding tuples, taking the slice over: it is
// sorted in place and, of tuples sharing a name, the last one is kept —
// what calling Set on each in turn would leave. The caller must not use
// tuples afterwards.
func RingOf(tuples ...Tuple) *NameRing {
	return &NameRing{tuples: sortTuples(tuples)}
}

// sortTuples brings ts into name order with each name once, keeping the
// last of every run of equal names. Input that is already strictly
// ascending — every encoded ring — costs one comparison per tuple.
func sortTuples(ts []Tuple) []Tuple {
	for i := 1; i < len(ts); i++ {
		if ts[i].Name > ts[i-1].Name {
			continue
		}
		slices.SortStableFunc(ts, func(a, b Tuple) int { return strings.Compare(a.Name, b.Name) })
		out := ts[:0]
		for j, t := range ts {
			if j+1 == len(ts) || ts[j+1].Name != t.Name {
				out = append(out, t)
			}
		}
		clear(ts[len(out):])
		return out
	}
	return ts
}

// search returns the position of name in ts[lo:] — where it is, or where
// it would be inserted — and whether it is there. Comparing Name directly
// keeps a lookup as cheap as the small-map fast path; a comparison closure
// is not.
func search(ts []Tuple, lo int, name string) (int, bool) {
	hi := len(ts)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if ts[h].Name < name {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(ts) && ts[lo].Name == name
}

// Set stores the tuple unconditionally, replacing any entry for the same
// child. Local authoritative operations (the submitting middleware) use
// Set; merges use Update.
func (r *NameRing) Set(t Tuple) {
	if i, ok := search(r.tuples, 0, t.Name); ok {
		r.tuples[i] = t
	} else {
		r.tuples = slices.Insert(r.tuples, i, t)
	}
}

// Update applies the tuple with merge semantics: it is stored only if no
// entry exists for the child or if it wins by timestamp. It reports
// whether the ring changed.
func (r *NameRing) Update(t Tuple) bool {
	i, ok := search(r.tuples, 0, t.Name)
	switch {
	case !ok:
		r.tuples = slices.Insert(r.tuples, i, t)
	case t.Wins(r.tuples[i]):
		r.tuples[i] = t
	default:
		return false
	}
	return true
}

// Get returns the tuple recorded for a child, including tombstones.
func (r *NameRing) Get(name string) (Tuple, bool) {
	if i, ok := search(r.tuples, 0, name); ok {
		return r.tuples[i], true
	}
	return Tuple{}, false
}

// Has reports whether the child exists and is not fake-deleted.
func (r *NameRing) Has(name string) bool {
	i, ok := search(r.tuples, 0, name)
	return ok && !r.tuples[i].Deleted
}

// Live returns the non-deleted tuples sorted alphabetically by name.
func (r *NameRing) Live() []Tuple {
	out := make([]Tuple, 0, len(r.tuples))
	for _, t := range r.tuples {
		if !t.Deleted {
			out = append(out, t)
		}
	}
	return out
}

// All returns every tuple — tombstones included — sorted by name.
func (r *NameRing) All() []Tuple {
	return append(make([]Tuple, 0, len(r.tuples)), r.tuples...)
}

// Range calls fn for every tuple — tombstones included — whose name sorts
// strictly after marker, in name order, until fn returns false; no name
// sorts before the empty marker. A page of a listing is cut out of the
// ring this way: it costs the page's length (plus a binary search), not
// the directory's.
func (r *NameRing) Range(marker string, fn func(Tuple) bool) {
	lo, found := search(r.tuples, 0, marker)
	if found {
		lo++
	}
	for _, t := range r.tuples[lo:] {
		if !fn(t) {
			return
		}
	}
}

// Len reports the number of live (non-deleted) children.
func (r *NameRing) Len() int {
	n := 0
	for _, t := range r.tuples {
		if !t.Deleted {
			n++
		}
	}
	return n
}

// TotalLen reports the number of tuples including tombstones.
func (r *NameRing) TotalLen() int { return len(r.tuples) }

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
//
// The merge is one sorted join, in place. The first pass overwrites the
// tuples the incoming ring wins and counts the names it adds; the second
// grows the slice once and places the added tuples from the back, moving
// the blocks of old tuples between them with copy — O(m + k log m) for k
// incoming tuples, where inserting them one by one would cost O(m) each.
func (r *NameRing) MergeFunc(other *NameRing, fn func(Tuple)) int {
	if other == nil {
		return 0
	}
	changed, added, lo := 0, 0, 0
	for _, t := range other.tuples {
		i, ok := search(r.tuples, lo, t.Name)
		lo = i
		if ok && !t.Wins(r.tuples[i]) {
			continue
		}
		if ok {
			r.tuples[i] = t
		} else {
			added++
		}
		changed++
		if fn != nil {
			fn(t)
		}
	}
	if added == 0 {
		return changed
	}
	old := len(r.tuples)
	ts := slices.Grow(r.tuples, added)[:old+added]
	// old tuples below i are still in place; k is the lowest filled slot.
	i, k := old, old+added
	for j := len(other.tuples) - 1; k > i; j-- {
		t := other.tuples[j]
		p, ok := search(ts[:i], 0, t.Name)
		if ok {
			continue
		}
		k -= i - p
		copy(ts[k:], ts[p:i])
		i = p
		k--
		ts[k] = t
	}
	r.tuples = ts
	return changed
}

// Merged returns a new ring equal to a merged with b, leaving both inputs
// untouched.
func Merged(a, b *NameRing) *NameRing {
	out := NewNameRing()
	out.Merge(a)
	out.Merge(b)
	return out
}

// Clone returns a deep copy.
func (r *NameRing) Clone() *NameRing {
	return &NameRing{tuples: slices.Clone(r.tuples)}
}

// Equal reports whether two rings hold exactly the same tuples.
func (r *NameRing) Equal(other *NameRing) bool {
	return slices.Equal(r.tuples, other.tuples)
}
