package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/h2fs"
)

// newRawStack serves a middleware holding account "alice" with a file /x,
// a file /b holding "old" and a directory /d, and returns the server's
// URL, a client that never follows a redirect, and the middleware.
func newRawStack(t *testing.T) (string, *http.Client, *h2fs.Middleware) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	mustOK(t, err)
	mw, err := h2fs.New(h2fs.Config{Store: c, Node: 1, EagerGC: true})
	mustOK(t, err)
	ctx := context.Background()
	mustOK(t, mw.CreateAccount(ctx, "alice"))
	fs := mw.FS("alice")
	mustOK(t, fs.WriteFile(ctx, "/x", []byte("xx")))
	mustOK(t, fs.WriteFile(ctx, "/b", []byte("old")))
	mustOK(t, fs.Mkdir(ctx, "/d"))
	ts := httptest.NewServer(NewServer(mw))
	t.Cleanup(ts.Close)
	hc := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	return ts.URL, hc, mw
}

// rawDo sends method to base+path exactly as written and returns the
// response with its body read.
func rawDo(t *testing.T, hc *http.Client, method, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader("new"))
	mustOK(t, err)
	resp, err := hc.Do(req)
	mustOK(t, err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	mustOK(t, err)
	return resp, body
}

// TestNonCanonicalPathIsRejected: a path with a "." or ".." segment or an
// empty one answers 400 invalid_path on every route, where a redirect
// would turn a PUT into a GET without its body and report success for a
// write that never happened. /b keeps its bytes.
func TestNonCanonicalPathIsRejected(t *testing.T) {
	base, hc, mw := newRawStack(t)
	routes := []struct{ method, verb string }{
		{"PUT", "accounts"}, {"DELETE", "accounts"}, {"HEAD", "accounts"},
		{"GET", "fs"}, {"PUT", "fs"}, {"DELETE", "fs"},
		{"GET", "stat"}, {"GET", "list"}, {"POST", "mkdir"}, {"POST", "rmdir"},
		{"POST", "move"}, {"POST", "copy"}, {"GET", "rel"}, {"GET", "ns"},
		{"GET", "usage"}, {"GET", "stats"},
	}
	for _, r := range routes {
		for _, tail := range []string{"/alice/a/../b", "/alice//b", "/alice/./b", "/alice/b/.."} {
			path := "/v1/" + r.verb + tail
			resp, body := rawDo(t, hc, r.method, base+path)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", r.method, path, resp.StatusCode)
				continue
			}
			if r.method == http.MethodHead {
				continue
			}
			var ae apiError
			if err := json.Unmarshal(body, &ae); err != nil || ae.Code != "invalid_path" {
				t.Errorf("%s %s: body %q, want code invalid_path", r.method, path, body)
			}
		}
	}
	data, err := mw.ReadFile(context.Background(), "alice", "/b")
	if err != nil || string(data) != "old" {
		t.Fatalf("/b = %q, %v after the rejected writes; want \"old\"", data, err)
	}
}

// TestStatsBucketsAreBounded: junk verbs and junk methods all land in one
// bucket, so /v1/stats holds at most the route table's names plus one.
func TestStatsBucketsAreBounded(t *testing.T) {
	base, hc, _ := newRawStack(t)
	for _, m := range []string{"GET", "PUT", "PATCH", "BREW", "PURGE", "LOCK", "SEARCH"} {
		for _, p := range []string{"/v1/junk1/a", "/v1/junk2", "/v1/fs/alice/x", "/v1/stats", "/elsewhere", "/v1/stat/alice/a/../b"} {
			rawDo(t, hc, m, base+p)
		}
	}
	resp, body := rawDo(t, hc, http.MethodGet, base+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats StatsPayload
	mustOK(t, json.Unmarshal(body, &stats))
	allowed := []string{
		"PUT accounts", "DELETE accounts", "HEAD accounts",
		"GET fs", "PUT fs", "DELETE fs", "GET stat", "GET list",
		"POST mkdir", "POST rmdir", "POST move", "POST copy",
		"GET rel", "GET ns", "GET usage", "GET stats", "unmatched",
		"store.put", "store.get", "store.getrange", "store.head", "store.delete", "store.copy",
		"store.multiget", "store.multihead", "store.multiput", "store.multidelete",
	}
	for _, op := range stats.Ops {
		if !slices.Contains(allowed, op.Name) {
			t.Errorf("stats bucket %q is not a route name", op.Name)
		}
	}
}
