package pathdb

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/h2cloud/h2cloud/internal/vclock"
)

func TestInsertGetDelete(t *testing.T) {
	db := New(Costs{})
	ctx := context.Background()
	db.Insert(ctx, Record{Path: "/a/b", Size: 10})
	rec, ok := db.Get(ctx, "/a/b")
	if !ok || rec.Size != 10 {
		t.Fatalf("Get = %+v, %v", rec, ok)
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
	if !db.Delete(ctx, "/a/b") {
		t.Fatal("Delete returned false")
	}
	if _, ok := db.Get(ctx, "/a/b"); ok {
		t.Fatal("record survived delete")
	}
	if db.Delete(ctx, "/a/b") {
		t.Fatal("double delete returned true")
	}
}

func TestInsertReplaces(t *testing.T) {
	db := New(Costs{})
	ctx := context.Background()
	db.Insert(ctx, Record{Path: "/x", Size: 1})
	db.Insert(ctx, Record{Path: "/x", Size: 2})
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
	rec, _ := db.Get(ctx, "/x")
	if rec.Size != 2 {
		t.Fatalf("Size = %d, want 2", rec.Size)
	}
}

func TestScanPrefixOrderedAndScoped(t *testing.T) {
	db := New(Costs{})
	ctx := context.Background()
	paths := []string{"/a/1", "/a/2", "/a/sub/3", "/ab/4", "/b/5"}
	for _, p := range paths {
		db.Insert(ctx, Record{Path: p})
	}
	var got []string
	db.ScanPrefix(ctx, "/a/", func(r Record) bool {
		got = append(got, r.Path)
		return true
	})
	want := []string{"/a/1", "/a/2", "/a/sub/3"}
	if len(got) != len(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
}

func TestScanPrefixEarlyStop(t *testing.T) {
	db := New(Costs{})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		db.Insert(ctx, Record{Path: fmt.Sprintf("/d/%02d", i)})
	}
	n := 0
	db.ScanPrefix(ctx, "/d/", func(Record) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d records, want 3", n)
	}
}

func TestScanRange(t *testing.T) {
	db := New(Costs{})
	ctx := context.Background()
	for _, p := range []string{"a", "b", "c", "d"} {
		db.Insert(ctx, Record{Path: p})
	}
	var got []string
	db.ScanRange(ctx, "b", "d", func(r Record) bool {
		got = append(got, r.Path)
		return true
	})
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("range scan = %v", got)
	}
}

func TestCostAccounting(t *testing.T) {
	costs := Costs{Probe: time.Millisecond, Scan: time.Microsecond, Write: 2 * time.Millisecond}
	db := New(costs)
	bg := context.Background()
	for i := 0; i < 1024; i++ {
		db.Insert(bg, Record{Path: fmt.Sprintf("/f/%04d", i)})
	}
	tr := vclock.NewTracker()
	ctx := vclock.With(bg, tr)
	db.Get(ctx, "/f/0000")
	// 1024 records -> 10 probes.
	if got, want := tr.Elapsed(), 10*time.Millisecond; got != want {
		t.Fatalf("Get charged %v, want %v", got, want)
	}
	tr.Reset()
	count := 0
	db.ScanPrefix(ctx, "/f/", func(Record) bool { count++; return true })
	want := 10*time.Millisecond + 1024*time.Microsecond
	if got := tr.Elapsed(); got != want {
		t.Fatalf("Scan charged %v, want %v (visited %d)", got, want, count)
	}
}

// Property: the DB agrees with a reference map + sort under random
// operation sequences.
func TestAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := New(Costs{})
	ref := map[string]Record{}
	ctx := context.Background()
	for i := 0; i < 5000; i++ {
		p := fmt.Sprintf("/p/%03d", rng.Intn(500))
		switch rng.Intn(3) {
		case 0, 1:
			rec := Record{Path: p, Size: int64(i)}
			db.Insert(ctx, rec)
			ref[p] = rec
		case 2:
			got := db.Delete(ctx, p)
			_, want := ref[p]
			if got != want {
				t.Fatalf("Delete(%q) = %v, want %v", p, got, want)
			}
			delete(ref, p)
		}
	}
	if db.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", db.Len(), len(ref))
	}
	var wantPaths []string
	for p := range ref {
		wantPaths = append(wantPaths, p)
	}
	sort.Strings(wantPaths)
	var gotPaths []string
	db.ScanPrefix(ctx, "/p/", func(r Record) bool {
		gotPaths = append(gotPaths, r.Path)
		if ref[r.Path].Size != r.Size {
			t.Fatalf("record %q size %d, want %d", r.Path, r.Size, ref[r.Path].Size)
		}
		return true
	})
	if len(gotPaths) != len(wantPaths) {
		t.Fatalf("scan found %d, want %d", len(gotPaths), len(wantPaths))
	}
	for i := range wantPaths {
		if gotPaths[i] != wantPaths[i] {
			t.Fatalf("order mismatch at %d: %q vs %q", i, gotPaths[i], wantPaths[i])
		}
	}
}

// Property: inserted keys are always retrievable with their latest value.
func TestQuickInsertGet(t *testing.T) {
	db := New(Costs{})
	ctx := context.Background()
	f := func(path string, size int64) bool {
		db.Insert(ctx, Record{Path: path, Size: size})
		rec, ok := db.Get(ctx, path)
		return ok && rec.Size == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDBInsert(b *testing.B) {
	db := New(Costs{})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Insert(ctx, Record{Path: fmt.Sprintf("/bench/%09d", i)})
	}
}

// BenchmarkDBScanPrefixCharged is the same scan with a vclock tracker
// attached, the way the Swift baseline's detailed LIST actually runs it.
func BenchmarkDBScanPrefixCharged(b *testing.B) {
	db := New(Costs{Probe: time.Microsecond, Scan: time.Microsecond, Write: time.Microsecond})
	bgCtx := context.Background()
	for i := 0; i < 100; i++ {
		for j := 0; j < 1000; j++ {
			db.Insert(bgCtx, Record{Path: fmt.Sprintf("/d%03d/%06d", i, j)})
		}
	}
	ctx := vclock.With(bgCtx, vclock.NewTracker())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ScanPrefix(ctx, fmt.Sprintf("/d%03d/", i%100), func(Record) bool { return true })
	}
}

func BenchmarkDBGet(b *testing.B) {
	db := New(Costs{})
	ctx := context.Background()
	for i := 0; i < 100000; i++ {
		db.Insert(ctx, Record{Path: fmt.Sprintf("/bench/%09d", i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get(ctx, fmt.Sprintf("/bench/%09d", i%100000))
	}
}
