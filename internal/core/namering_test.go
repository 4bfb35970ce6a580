package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTupleWins(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want bool
	}{
		{Tuple{Name: "x", Time: 2}, Tuple{Name: "x", Time: 1}, true},
		{Tuple{Name: "x", Time: 1}, Tuple{Name: "x", Time: 2}, false},
		{Tuple{Name: "x", Time: 1, Deleted: true}, Tuple{Name: "x", Time: 1}, true},
		{Tuple{Name: "x", Time: 1}, Tuple{Name: "x", Time: 1, Deleted: true}, false},
		{Tuple{Name: "x", Time: 1, Dir: true}, Tuple{Name: "x", Time: 1}, true},
		{Tuple{Name: "x", Time: 1}, Tuple{Name: "x", Time: 1}, false},
	}
	for i, c := range cases {
		if got := c.a.Wins(c.b); got != c.want {
			t.Errorf("case %d: Wins = %v, want %v", i, got, c.want)
		}
	}
}

// Property: Wins is a strict total order on distinct tuples with the same
// name — exactly one of a.Wins(b), b.Wins(a) holds unless a == b.
func TestTupleWinsAntisymmetric(t *testing.T) {
	f := func(t1, t2 int64, d1, d2, dir1, dir2 bool, n1, n2 uint8) bool {
		nss := []string{"", "01.1.1", "02.1.1"}
		a := Tuple{Name: "n", Time: t1 % 100, Deleted: d1, Dir: dir1, NS: nss[int(n1)%3]}
		b := Tuple{Name: "n", Time: t2 % 100, Deleted: d2, Dir: dir2, NS: nss[int(n2)%3]}
		if a == b {
			return !a.Wins(b) && !b.Wins(a)
		}
		return a.Wins(b) != b.Wins(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetGetLive(t *testing.T) {
	r := NewNameRing()
	r.Set(Tuple{Name: "cat", Time: 1})
	r.Set(Tuple{Name: "bash", Time: 2})
	r.Set(Tuple{Name: "nc", Time: 3, Deleted: true})
	if r.Len() != 2 || r.TotalLen() != 3 {
		t.Fatalf("Len = %d, TotalLen = %d", r.Len(), r.TotalLen())
	}
	live := r.Live()
	if len(live) != 2 || live[0].Name != "bash" || live[1].Name != "cat" {
		t.Fatalf("Live = %+v", live)
	}
	if !r.Has("cat") || r.Has("nc") || r.Has("ghost") {
		t.Fatal("Has wrong")
	}
	if tp, ok := r.Get("nc"); !ok || !tp.Deleted {
		t.Fatalf("Get(nc) = %+v, %v", tp, ok)
	}
}

func TestUpdateRespectsTimestamps(t *testing.T) {
	r := NewNameRing()
	r.Set(Tuple{Name: "f", Time: 10})
	if r.Update(Tuple{Name: "f", Time: 5, Deleted: true}) {
		t.Fatal("stale update applied")
	}
	if !r.Has("f") {
		t.Fatal("stale tombstone deleted child")
	}
	if !r.Update(Tuple{Name: "f", Time: 15, Deleted: true}) {
		t.Fatal("fresh update rejected")
	}
	if r.Has("f") {
		t.Fatal("fresh tombstone ignored")
	}
}

func TestMergePaperSemantics(t *testing.T) {
	// §3.3.2: child in both -> larger timestamp overrides; child only in
	// patch -> inserted; no child is removed by a merge.
	a := NewNameRing()
	a.Set(Tuple{Name: "shared", Time: 10})
	a.Set(Tuple{Name: "only-a", Time: 5})
	b := NewNameRing()
	b.Set(Tuple{Name: "shared", Time: 20, Deleted: true})
	b.Set(Tuple{Name: "only-b", Time: 7})
	changed := a.Merge(b)
	if changed != 2 {
		t.Fatalf("Merge changed %d entries, want 2", changed)
	}
	if a.TotalLen() != 3 {
		t.Fatalf("TotalLen = %d, want 3", a.TotalLen())
	}
	if a.Has("shared") {
		t.Fatal("newer tombstone did not override")
	}
	if !a.Has("only-a") || !a.Has("only-b") {
		t.Fatal("merge dropped a child")
	}
}

func TestMergeNil(t *testing.T) {
	r := NewNameRing()
	if r.Merge(nil) != 0 {
		t.Fatal("Merge(nil) changed something")
	}
}

func TestCloneIndependent(t *testing.T) {
	r := NewNameRing()
	r.Set(Tuple{Name: "a", Time: 1})
	c := r.Clone()
	c.Set(Tuple{Name: "b", Time: 2})
	if r.TotalLen() != 1 || c.TotalLen() != 2 {
		t.Fatalf("clone aliased: r=%d c=%d", r.TotalLen(), c.TotalLen())
	}
	if !r.Equal(r.Clone()) {
		t.Fatal("clone not Equal to source")
	}
}

// TestRingOf checks RingOf against Set in slice order: sorted, each name
// once, the last of equal names kept. Input already in order — every
// stored ring — is taken over as it is.
func TestRingOf(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		ts := make([]Tuple, rng.Intn(20))
		want := NewNameRing()
		for j := range ts {
			ts[j] = Tuple{Name: string(rune('a' + rng.Intn(8))), Time: int64(j), Deleted: rng.Intn(3) == 0}
			want.Set(ts[j])
		}
		if got := RingOf(slices.Clone(ts)...); !got.Equal(want) {
			t.Fatalf("RingOf(%v) = %v, want %v", ts, got.All(), want.All())
		}
	}
	sorted := []Tuple{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	if r := RingOf(sorted...); len(r.tuples) != 3 || &r.tuples[0] != &sorted[0] {
		t.Fatal("RingOf copied input that was already in order")
	}
	if r := RingOf(); r.TotalLen() != 0 || !r.Equal(NewNameRing()) {
		t.Fatal("RingOf() is not the empty ring")
	}
}

// TestNameRingModel drives a ring through random Set/Update/MergeFunc/
// Range steps and encode→decode round trips against a map
// reference. After every step All is the map sorted by name, and every
// merge reports — by count and through its callback — exactly the names
// the reference says it changes. Merges cover one-tuple patches, small
// rings built with repeated names, the MergedExtents shape (a batch of
// names split into interleaved disjoint rings, merged one after another)
// and self-merge. Names come from a small pool, so overwrites, tombstones
// and resurrections happen many times.
func TestNameRingModel(t *testing.T) {
	rounds, steps := 40, 300
	if testing.Short() {
		rounds = 5
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
		r, ref := NewNameRing(), map[string]Tuple{}
		var where string
		merge := func(other *NameRing) {
			want := map[string]Tuple{}
			for _, tp := range other.All() {
				if old, ok := ref[tp.Name]; !ok || tp.Wins(old) {
					want[tp.Name] = tp
				}
			}
			seen := map[string]Tuple{}
			n := r.MergeFunc(other, func(tp Tuple) { seen[tp.Name] = tp })
			if n != len(want) || !maps.Equal(seen, want) {
				t.Fatalf("%s: merge changed %d %v, want %v", where, n, seen, want)
			}
			maps.Copy(ref, want)
		}
		for step := 0; step < steps; step++ {
			where = fmt.Sprintf("round %d step %d", round, step)
			switch op := rng.Intn(20); {
			case op < 5:
				tp := randTuple()
				r.Set(tp)
				ref[tp.Name] = tp
			case op < 8:
				tp := randTuple()
				old, ok := ref[tp.Name]
				want := !ok || tp.Wins(old)
				if got := r.Update(tp); got != want {
					t.Fatalf("%s: Update(%v) = %v, want %v", where, tp, got, want)
				}
				if want {
					ref[tp.Name] = tp
				}
			case op < 10:
				merge(RingOf(randTuple()))
			case op < 12:
				ts := make([]Tuple, rng.Intn(12))
				for i := range ts {
					ts[i] = randTuple()
				}
				merge(RingOf(ts...))
			case op < 13:
				shards := 2 + rng.Intn(7)
				parts := make([][]Tuple, shards)
				for i := 8 + rng.Intn(64); i > 0; i-- {
					clock++
					tp := Tuple{Name: randName(rng)[:2+rng.Intn(6)], Time: clock, Deleted: rng.Intn(4) == 0}
					parts[ShardOf(tp.Name, shards)] = append(parts[ShardOf(tp.Name, shards)], tp)
				}
				for _, p := range parts {
					merge(RingOf(p...))
				}
			case op < 14:
				merge(r)
			case op < 17:
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
				for _, tp := range sortedModel(ref) {
					if tp.Name > marker && len(want) < stop {
						want = append(want, tp)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Range(%q) stopped at %d = %v, want %v", where, marker, stop, got, want)
				}
			case op < 18:
				// Through the extents of a sharded layout and back.
				shards := 2 + rng.Intn(7)
				all := make([]int, shards)
				extents := make([]*NameRing, shards)
				for i := range all {
					all[i] = i
				}
				for i, data := range EncodeNameRingExtents(r, shards, all) {
					var err error
					if extents[i], err = DecodeNameRing(data); err != nil {
						t.Fatalf("%s: extent %d: %v", where, i, err)
					}
				}
				r = MergedExtents(extents)
			default:
				dec, err := DecodeNameRing(EncodeNameRing(r))
				if err != nil || !dec.Equal(r) {
					t.Fatalf("%s: encode round trip: err %v", where, err)
				}
				r = dec
			}
			want := sortedModel(ref)
			if got := r.All(); !slices.Equal(got, want) {
				t.Fatalf("%s: All = %v, want %v", where, got, want)
			}
			if got := r.Live(); !slices.Equal(got, slices.DeleteFunc(want, func(tp Tuple) bool { return tp.Deleted })) {
				t.Fatalf("%s: Live = %v", where, got)
			}
			name := pool[rng.Intn(len(pool))]
			got, ok := r.Get(name)
			if wantT, wantOK := ref[name]; got != wantT || ok != wantOK || r.Has(name) != (ok && !got.Deleted) {
				t.Fatalf("%s: Get(%q) = %v, %v, want %v, %v", where, name, got, ok, wantT, wantOK)
			}
		}
	}
}

// sortedModel is the reference ring: the map's tuples sorted by name.
func sortedModel(ref map[string]Tuple) []Tuple {
	out := make([]Tuple, 0, len(ref))
	for _, tp := range ref {
		out = append(out, tp)
	}
	slices.SortFunc(out, func(a, b Tuple) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// randomRing builds a ring from fuzz data over a small name alphabet so
// rings collide on children frequently.
func randomRing(rng *rand.Rand, n int) *NameRing {
	names := []string{"a", "b", "c", "d", "e"}
	nss := []string{"", "01.1.1", "02.2.2"}
	r := NewNameRing()
	for i := 0; i < n; i++ {
		r.Set(Tuple{
			Name:    names[rng.Intn(len(names))],
			Time:    int64(rng.Intn(20)),
			Deleted: rng.Intn(3) == 0,
			Dir:     rng.Intn(4) == 0,
			NS:      nss[rng.Intn(len(nss))],
		})
	}
	return r
}

// Properties of the merge algorithm (§3.3.2). These are what eventual
// consistency rests on: every node applying the same set of patches in
// any order and any grouping converges to the same NameRing.
func TestMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a, b := randomRing(rng, 8), randomRing(rng, 8)
		if !Merged(a, b).Equal(Merged(b, a)) {
			t.Fatalf("merge not commutative:\na=%+v\nb=%+v", a.All(), b.All())
		}
	}
}

func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		a, b, c := randomRing(rng, 6), randomRing(rng, 6), randomRing(rng, 6)
		left := Merged(Merged(a, b), c)
		right := Merged(a, Merged(b, c))
		if !left.Equal(right) {
			t.Fatalf("merge not associative:\na=%+v\nb=%+v\nc=%+v", a.All(), b.All(), c.All())
		}
	}
}

func TestMergeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		a := randomRing(rng, 8)
		if !Merged(a, a).Equal(a) {
			t.Fatalf("merge not idempotent: %+v", a.All())
		}
		b := a.Clone()
		if b.Merge(a) != 0 {
			t.Fatal("self-merge reported changes")
		}
	}
}

func BenchmarkMerge1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	big := NewNameRing()
	for i := 0; i < 1000; i++ {
		big.Set(Tuple{Name: randName(rng), Time: int64(i)})
	}
	patch := NewNameRing()
	for i := 0; i < 50; i++ {
		patch.Set(Tuple{Name: randName(rng), Time: int64(2000 + i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		big.Clone().Merge(patch)
	}
}

func benchRing(seed int64, n int) *NameRing {
	rng := rand.New(rand.NewSource(seed))
	r := NewNameRing()
	for i := 0; i < n; i++ {
		r.Set(Tuple{Name: randName(rng), Time: int64(i)})
	}
	return r
}

func BenchmarkMergePatch(b *testing.B) {
	// The descriptor path: a small patch folded into a large local ring.
	big := benchRing(9, 10000)
	patch := benchRing(10, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		big.Merge(patch)
	}
}

func randName(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	buf := make([]byte, 8)
	for i := range buf {
		buf[i] = letters[rng.Intn(len(letters))]
	}
	return string(buf)
}
