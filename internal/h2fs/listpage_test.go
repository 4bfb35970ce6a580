package h2fs

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
)

func TestListPagePagination(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/big"))
	const n = 57
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%03d", i)
		mustNoErr(t, fs.WriteFile(ctx, "/big/"+name, []byte("x")))
		want[name] = true
	}

	got := map[string]bool{}
	marker := ""
	pages := 0
	for {
		entries, next, err := m.ListPage(ctx, "alice", "/big", false, marker, 10)
		mustNoErr(t, err)
		if len(entries) > 10 {
			t.Fatalf("page has %d entries, limit 10", len(entries))
		}
		for _, e := range entries {
			if got[e.Name] {
				t.Fatalf("entry %s returned twice", e.Name)
			}
			got[e.Name] = true
		}
		pages++
		if next == "" {
			break
		}
		marker = next
	}
	if len(got) != n {
		t.Fatalf("pagination returned %d entries, want %d", len(got), n)
	}
	if pages != 6 { // 5 full pages of 10 + one of 7
		t.Fatalf("pages = %d, want 6", pages)
	}
}

func TestListPageMarkerSkips(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	for _, name := range []string{"a", "b", "c", "d"} {
		mustNoErr(t, fs.WriteFile(ctx, "/d/"+name, []byte("x")))
	}
	entries, next, err := m.ListPage(ctx, "alice", "/d", false, "b", 0)
	mustNoErr(t, err)
	if next != "" {
		t.Fatalf("next = %q without limit", next)
	}
	if len(entries) != 2 || entries[0].Name != "c" || entries[1].Name != "d" {
		t.Fatalf("entries after marker b = %+v", entries)
	}
	// Marker between names: still strictly-greater semantics.
	entries, _, err = m.ListPage(ctx, "alice", "/d", false, "bb", 0)
	mustNoErr(t, err)
	if len(entries) != 2 || entries[0].Name != "c" {
		t.Fatalf("entries after marker bb = %+v", entries)
	}
	// Marker past the end.
	entries, _, err = m.ListPage(ctx, "alice", "/d", false, "zzz", 0)
	mustNoErr(t, err)
	if len(entries) != 0 {
		t.Fatalf("entries after marker zzz = %+v", entries)
	}
}

func TestListPageLimitExact(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	for i := 0; i < 10; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/d/f%d", i), []byte("x")))
	}
	// limit == len: no next marker.
	entries, next, err := m.ListPage(ctx, "alice", "/d", false, "", 10)
	mustNoErr(t, err)
	if len(entries) != 10 || next != "" {
		t.Fatalf("exact limit: %d entries, next %q", len(entries), next)
	}
}

// listAllPages pages a directory to the end and returns the concatenated
// pages. between, if non-nil, runs once after the first page when more
// pages follow.
func listAllPages(t *testing.T, m *Middleware, path string, detail bool, limit int, between func()) []fsapi.EntryInfo {
	t.Helper()
	var all []fsapi.EntryInfo
	marker := ""
	for page := 0; ; page++ {
		entries, next, err := m.ListPage(context.Background(), "alice", path, detail, marker, limit)
		mustNoErr(t, err)
		if len(entries) > limit {
			t.Fatalf("limit %d: page %d has %d entries", limit, page, len(entries))
		}
		if next != "" && (len(entries) != limit || next != entries[limit-1].Name) {
			t.Fatalf("limit %d: page %d of %d entries has next %q", limit, page, len(entries), next)
		}
		all = append(all, entries...)
		if next == "" {
			return all
		}
		if page == 0 && between != nil {
			between()
		}
		marker = next
	}
}

// TestListPageWalkEqualsList cuts a directory that holds tombstones into
// pages of every interesting size, lets a WRITE and a REMOVE land past the
// marker between the first two pages, and expects the concatenation to be
// exactly what an unpaged List then returns — names, kinds, times and, in
// the detailed form, sizes.
func TestListPageWalkEqualsList(t *testing.T) {
	const m = 23 // live children after the removals below
	for _, detail := range []bool{false, true} {
		for _, limit := range []int{1, 2, 7, m - 1, m, m + 1} {
			mw := newMW(t, newCluster(t), 1)
			ctx := context.Background()
			mustNoErr(t, mw.CreateAccount(ctx, "alice"))
			fs := mw.FS("alice")
			mustNoErr(t, fs.Mkdir(ctx, "/d"))
			for i := 0; i < m+6; i++ {
				mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/d/f%02d", i), make([]byte, i)))
			}
			mustNoErr(t, fs.Mkdir(ctx, "/d/f05.dir"))
			// Tombstones at the front, in the middle and at the very end.
			for _, i := range []int{0, 1, 9, 10, 17, m + 5, 20} {
				mustNoErr(t, fs.Remove(ctx, fmt.Sprintf("/d/f%02d", i)))
			}
			got := listAllPages(t, mw, "/d", detail, limit, func() {
				mustNoErr(t, fs.WriteFile(ctx, "/d/zz-new", []byte("new")))
				mustNoErr(t, fs.Remove(ctx, fmt.Sprintf("/d/f%02d", m+4)))
			})
			want, err := fs.List(ctx, "/d", detail)
			mustNoErr(t, err)
			if wantLen := m; limit >= m {
				if len(want) != wantLen {
					t.Fatalf("fixture: %d live children, want %d", len(want), wantLen)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("detail %v limit %d: pages\n%+v\nList\n%+v", detail, limit, got, want)
			}
		}
	}
}

// TestListPageDetailHeadsOnlyThePage counts store requests: a detailed
// page HEADs its own entries and nothing else of the directory.
func TestListPageDetailHeadsOnlyThePage(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	fs := m.FS("alice")
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	for i := 0; i < 40; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/d/f%02d", i), []byte("x")))
	}
	mustNoErr(t, fs.Remove(ctx, "/d/f12"))
	c.ResetCounters()
	entries, next, err := m.ListPage(ctx, "alice", "/d", true, "f09", 7)
	mustNoErr(t, err)
	if len(entries) != 7 || entries[0].Name != "f10" || next != "f17" || entries[6].Size != 1 {
		t.Fatalf("page = %+v, next %q", entries, next)
	}
	if st := c.Stats(); st.Heads != int64(len(entries)) || st.Gets != 0 {
		t.Fatalf("a detailed page of %d cost %d HEADs and %d GETs", len(entries), st.Heads, st.Gets)
	}
}

// TestListPageCostsItsLengthNotTheDirectorys pages a 50 000-file
// directory ten names at a time: copying or sorting the directory per
// page would allocate megabytes, the page walk allocates the page.
func TestListPageCostsItsLengthNotTheDirectorys(t *testing.T) {
	m := newMW(t, newCluster(t), 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	mustNoErr(t, m.FS("alice").Mkdir(ctx, "/big"))
	res, _, err := m.resolve(ctx, "alice", "/big")
	mustNoErr(t, err)
	mustNoErr(t, m.withRing(ctx, "alice", res.tuple.NS, func(r *core.NameRing) error {
		for i := 0; i < 50_000; i++ {
			r.Set(core.Tuple{Name: fmt.Sprintf("f%06d", i), Time: int64(i + 1), Deleted: i%10 == 3})
		}
		return nil
	}))
	page := func() {
		entries, next, err := m.ListPage(ctx, "alice", "/big", false, "f025000", 10)
		if err != nil || len(entries) != 10 || next != "f025011" {
			t.Fatalf("page = %+v, next %q, err %v", entries, next, err)
		}
	}
	if b := fstest.AllocBytesPerRun(20, page); b >= 4<<10 {
		t.Fatalf("a 10-entry page of a 50 000-file directory allocates %d B, want < 4 KiB", b)
	}
}

// TestSubmitPatchOneTupleAllocs pins the allocations of the patch every
// WRITE submits. The patch ring lives on submitPatch's stack: the ceiling
// is what the commit before the name index measured (18; with the index
// and without the placement memo it is 17), and a NameRing method that
// makes the ring escape moves its map to the heap and measures 19.
func TestSubmitPatchOneTupleAllocs(t *testing.T) {
	m := newMW(t, newCluster(t), 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	ns := mustRootNS(t, m, "alice")
	now := int64(0)
	submit := func() {
		now++
		if err := m.submitPatch(ctx, "alice", ns, core.Tuple{Name: "f", Time: now}); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 18
	if n := testing.AllocsPerRun(200, submit); n > ceiling {
		t.Fatalf("one-tuple submitPatch allocates %v times, ceiling %d", n, ceiling)
	}
}
