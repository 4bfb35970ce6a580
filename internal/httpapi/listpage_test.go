package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/h2cloud/h2cloud/internal/fsapi"
)

func TestListPageOverHTTP(t *testing.T) {
	client, _ := newStack(t)
	ctx := context.Background()
	mustOK(t, client.CreateAccount(ctx, "alice"))
	fs := client.FS("alice")
	mustOK(t, fs.Mkdir(ctx, "/big"))
	const n = 25
	for i := 0; i < n; i++ {
		mustOK(t, fs.WriteFile(ctx, fmt.Sprintf("/big/f%03d", i), []byte("xy")))
	}
	seen := 0
	marker := ""
	for {
		entries, next, err := fs.ListPage(ctx, "/big", true, marker, 10)
		mustOK(t, err)
		for _, e := range entries {
			if e.Size != 2 {
				t.Fatalf("detail lost in pagination: %+v", e)
			}
		}
		seen += len(entries)
		if next == "" {
			break
		}
		marker = next
	}
	if seen != n {
		t.Fatalf("paginated %d entries, want %d", seen, n)
	}
}

func TestListPageBadLimit(t *testing.T) {
	client, _ := newStack(t)
	ctx := context.Background()
	mustOK(t, client.CreateAccount(ctx, "alice"))
	// Drive the raw endpoint with a bad limit.
	resp, err := client.hc.Get(client.base + "/v1/list/alice/?limit=notanumber")
	mustOK(t, err)
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad limit status = %d", resp.StatusCode)
	}
	_, _, err = client.FS("alice").ListPage(ctx, "bad-path", false, "", 1)
	if !errors.Is(err, fsapi.ErrInvalidPath) {
		t.Fatalf("ListPage(bad path) = %v", err)
	}
}

// TestNextMarkerSurvivesTheHeader pages a directory whose names hold
// bytes a header value cannot carry raw (a newline used to come back as a
// space, so the next page started at the wrong place): one entry a page,
// so every name serves as a marker once, and the concatenation must be the
// middleware's own listing.
func TestNextMarkerSurvivesTheHeader(t *testing.T) {
	client, mw := newStack(t)
	ctx := context.Background()
	mustOK(t, client.CreateAccount(ctx, "alice"))
	direct := mw.FS("alice")
	mustOK(t, direct.Mkdir(ctx, "/d"))
	for _, name := range []string{"a\nb", "a b", "a\tb", "a%20b", "100%", "%zz", "日本語.txt", "naïve\r\n", "plain"} {
		mustOK(t, direct.WriteFile(ctx, "/d/"+name, []byte(name)))
	}
	want, err := direct.List(ctx, "/d", false)
	mustOK(t, err)

	var got []fsapi.EntryInfo
	marker := ""
	for {
		entries, next, err := client.FS("alice").ListPage(ctx, "/d", false, marker, 1)
		mustOK(t, err)
		got = append(got, entries...)
		if next == "" {
			break
		}
		if len(got) > len(want) {
			t.Fatalf("paging does not end: %d entries so far, directory has %d", len(got), len(want))
		}
		marker = next
	}
	if len(got) != len(want) {
		t.Fatalf("paged %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("entry %d = %q, want %q", i, got[i].Name, want[i].Name)
		}
	}
}

// TestClientRejectsUndecodableMarker: a next marker that is not valid
// percent-encoding is an error, not a marker to page on with.
func TestClientRejectsUndecodableMarker(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Next-Marker", "100%")
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, "[]")
	}))
	defer ts.Close()
	_, next, err := NewClient(ts.URL, ts.Client()).FS("alice").ListPage(context.Background(), "/", false, "", 1)
	if err == nil {
		t.Fatalf("undecodable marker accepted as %q", next)
	}
}
