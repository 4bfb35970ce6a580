package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sortedRef is the reference the name index is checked against: the ring's
// map, copied out and sorted from scratch.
func sortedRef(r *NameRing, live bool) []Tuple {
	var out []Tuple
	for _, t := range r.children {
		if !live || !t.Deleted {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b Tuple) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// TestNameIndexProperty drives a ring through random Set/Update/Merge/
// Compact steps interleaved with every ordered read, and compares each
// read with sorting the map. Names come from a small pool so that
// overwrites, tombstones, resurrections and compaction of indexed names
// all happen many times.
func TestNameIndexProperty(t *testing.T) {
	rounds, steps := 200, 400
	if testing.Short() {
		rounds = 20
	}
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round) + 1))
		pool := make([]string, 8+rng.Intn(120))
		for i := range pool {
			pool[i] = randName(rng)[:1+rng.Intn(7)]
		}
		clock := int64(0)
		randTuple := func() Tuple {
			clock++
			return Tuple{
				Name:    pool[rng.Intn(len(pool))],
				Time:    clock - int64(rng.Intn(5)),
				Deleted: rng.Intn(4) == 0,
				Dir:     rng.Intn(8) == 0,
			}
		}
		r := NewNameRing()
		for step := 0; step < steps; step++ {
			where := fmt.Sprintf("round %d step %d", round, step)
			switch op := rng.Intn(20); {
			case op < 6:
				r.Set(randTuple())
			case op < 10:
				r.Update(randTuple())
			case op < 12:
				other := NewNameRing()
				for i := rng.Intn(12); i > 0; i-- {
					other.Set(randTuple())
				}
				r.Merge(other)
			case op < 13:
				r.Compact(clock - int64(rng.Intn(40)))
			case op < 15:
				if got, want := r.All(), sortedRef(r, false); !slices.Equal(got, want) {
					t.Fatalf("%s: All = %v, want %v", where, got, want)
				}
			case op < 17:
				if got, want := r.Live(), sortedRef(r, true); !slices.Equal(got, want) {
					t.Fatalf("%s: Live = %v, want %v", where, got, want)
				}
			case op < 18:
				dec, err := DecodeNameRing(EncodeNameRing(r))
				if err != nil || !dec.Equal(r) {
					t.Fatalf("%s: encode round trip: err %v", where, err)
				}
			default:
				// The marker walk: a marker that is a child, one that is not,
				// or none; stopped after a random number of tuples.
				marker := ""
				switch rng.Intn(3) {
				case 0:
					marker = pool[rng.Intn(len(pool))]
				case 1:
					marker = randName(rng)[:1+rng.Intn(3)]
				}
				stop := 1 + rng.Intn(len(pool)+1)
				var got, want []Tuple
				r.Range(marker, func(tp Tuple) bool {
					got = append(got, tp)
					return len(got) < stop
				})
				for _, tp := range sortedRef(r, false) {
					if tp.Name > marker {
						want = append(want, tp)
					}
				}
				if len(want) > stop {
					want = want[:stop]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Range(%q) stopped at %d = %v, want %v", where, marker, stop, got, want)
				}
			}
		}
	}
}

// TestEqualCloneIgnoreIndex checks that the index is no part of a ring's
// value: a ring with an index equals one without, and a clone starts
// without one yet reads in order.
func TestEqualCloneIgnoreIndex(t *testing.T) {
	a, b := NewNameRing(), NewNameRing()
	for _, name := range []string{"m", "c", "x", "a"} {
		a.Set(Tuple{Name: name, Time: 1})
		b.Set(Tuple{Name: name, Time: 1})
	}
	a.All() // a has an index, b has none
	a.Set(Tuple{Name: "k", Time: 2})
	b.Set(Tuple{Name: "k", Time: 2})
	if a.idx == nil || len(a.idx.fresh) != 1 || b.idx != nil {
		t.Fatalf("fixture: a.idx %+v, b.idx %+v", a.idx, b.idx)
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("rings with equal tuples differ by their index")
	}
	c := a.Clone()
	if c.idx != nil {
		t.Fatal("Clone carried the index over")
	}
	if !c.Equal(a) || !slices.Equal(c.All(), a.All()) {
		t.Fatalf("clone reads %v, original %v", c.All(), a.All())
	}
	c.Set(Tuple{Name: "b", Time: 3})
	if got := a.All(); len(got) != 5 || got[1].Name != "c" {
		t.Fatalf("a write to the clone reached the original's order: %v", got)
	}
	if m := Merged(a, b); m.idx != nil {
		t.Fatal("Merged produced a ring with an index")
	}
}

// TestOneTuplePatchEncodeBuildsNoIndex pins the patch fast path: encoding
// a ring of one tuple — every WRITE's patch — must not pay for an order.
func TestOneTuplePatchEncodeBuildsNoIndex(t *testing.T) {
	r := NewNameRing()
	r.Set(Tuple{Name: "f", Time: 1})
	EncodeNameRing(r) // warm the scratch pool
	if n := testing.AllocsPerRun(100, func() { EncodeNameRing(r) }); n > 1 {
		t.Errorf("one-tuple EncodeNameRing allocates %v times, want 1 (the buffer)", n)
	}
	if r.idx != nil {
		t.Error("one-tuple ring built a name index")
	}
}
