package httpapi

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

func newStack(t testing.TB) (*Client, *h2fs.Middleware) { return serveStack(t, false) }

// newProbedFS is the conformance factory: account alice on a stack whose
// cluster sits behind fstest.Probe and whose server roots every request
// in fstest.Context, so a handler that does not pass r.Context() down to
// the middleware fails t.
func newProbedFS(t *testing.T) fsapi.FileSystem {
	client, _ := serveStack(t, true)
	if err := client.CreateAccount(fstest.Context(), "alice"); err != nil {
		t.Fatal(err)
	}
	return client.FS("alice")
}

func serveStack(t testing.TB, probed bool) (*Client, *h2fs.Middleware) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	var store objstore.Store = c
	if probed {
		store = fstest.Probe(t, c)
	}
	mw, err := h2fs.New(h2fs.Config{Store: store, Node: 1, EagerGC: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(NewServer(mw))
	if probed {
		ts.Config.BaseContext = func(net.Listener) context.Context { return fstest.Context() }
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), mw
}

// TestConformanceOverHTTP drives the full filesystem conformance suite
// through the web API: client -> HTTP -> middleware -> object cloud.
func TestConformanceOverHTTP(t *testing.T) {
	fstest.Run(t, newProbedFS)
}

func TestAccountLifecycle(t *testing.T) {
	client, _ := newStack(t)
	ctx := context.Background()
	ok, err := client.AccountExists(ctx, "alice")
	if err != nil || ok {
		t.Fatalf("exists before create = %v, %v", ok, err)
	}
	if err := client.CreateAccount(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := client.CreateAccount(ctx, "alice"); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("duplicate create = %v", err)
	}
	ok, _ = client.AccountExists(ctx, "alice")
	if !ok {
		t.Fatal("account missing after create")
	}
	fs := client.FS("alice")
	if err := fs.WriteFile(ctx, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteAccount(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	ok, _ = client.AccountExists(ctx, "alice")
	if ok {
		t.Fatal("account present after delete")
	}
}

func TestErrorCodesRoundTrip(t *testing.T) {
	client, _ := newStack(t)
	ctx := context.Background()
	if err := client.CreateAccount(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	fs := client.FS("alice")
	if _, err := fs.ReadFile(ctx, "/missing"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("missing read = %v", err)
	}
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(ctx, "/d"); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("dup mkdir = %v", err)
	}
	if _, err := fs.ReadFile(ctx, "/d"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("read dir = %v", err)
	}
	if err := fs.WriteFile(ctx, "relative", nil); !errors.Is(err, fsapi.ErrInvalidPath) {
		t.Fatalf("invalid path = %v", err)
	}
}

func TestRelativeAccessEndpoint(t *testing.T) {
	client, mw := newStack(t)
	ctx := context.Background()
	if err := client.CreateAccount(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	fs := client.FS("alice")
	if err := fs.Mkdir(ctx, "/home"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ctx, "/home/file1", []byte("via-rel")); err != nil {
		t.Fatal(err)
	}
	// Discover the namespace via the middleware's internals, then read
	// through the public quick-access endpoint.
	entries, err := mw.List(ctx, "alice", "/", false)
	if err != nil || len(entries) != 1 {
		t.Fatalf("list = %v, %v", entries, err)
	}
	// The only way to learn the namespace publicly would be an admin API;
	// reach through the middleware here.
	data, _, err := mw.AccessRelative(ctx, "alice", relOf(t, mw, "/home")+"::file1")
	if err != nil || string(data) != "via-rel" {
		t.Fatalf("middleware rel access = %q, %v", data, err)
	}
	rel := relOf(t, mw, "/home") + "::file1"
	got, err := client.ReadRelative(ctx, "alice", rel)
	if err != nil || string(got) != "via-rel" {
		t.Fatalf("client rel access = %q, %v", got, err)
	}
	if _, err := client.ReadRelative(ctx, "alice", "junk-no-separator"); err == nil {
		t.Fatal("malformed relative path accepted")
	}
}

// relOf resolves a directory path to its namespace through Stat-level
// internals exposed for tests.
func relOf(t *testing.T, mw *h2fs.Middleware, path string) string {
	t.Helper()
	ns, err := mw.ResolveNS(context.Background(), "alice", path)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func TestSpecialCharactersInNames(t *testing.T) {
	client, _ := newStack(t)
	ctx := context.Background()
	if err := client.CreateAccount(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	fs := client.FS("alice")
	name := "/weird name +%&#?.txt"
	if err := fs.WriteFile(ctx, name, []byte("odd")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(ctx, name)
	if err != nil || string(data) != "odd" {
		t.Fatalf("round trip = %q, %v", data, err)
	}
	entries, err := fs.List(ctx, "/", false)
	if err != nil || len(entries) != 1 || entries[0].Name != strings.TrimPrefix(name, "/") {
		t.Fatalf("List = %+v, %v", entries, err)
	}
	// An account name holding a '/' travels as one escaped segment, never
	// as an account and a path into "alice".
	if err := client.CreateAccount(ctx, "alice/x"); !errors.Is(err, fsapi.ErrInvalidPath) {
		t.Fatalf("CreateAccount(alice/x) = %v, want ErrInvalidPath", err)
	}
	if _, err := client.FS("alice"+name).Stat(ctx, "/"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("Stat of account %q = %v, want ErrNotFound", "alice"+name, err)
	}
}

// TestRawHTTPStatuses pins, route by route, the statuses the web API
// answers on the wire: every (method, verb) against a missing account, a
// HEAD on a GET route, 405 with Allow for a wrong method on a known verb,
// 404 for an unknown verb or extra segments on an account-only route.
func TestRawHTTPStatuses(t *testing.T) {
	base, hc, _ := newRawStack(t)
	cases := []struct {
		method, path string
		status       int
		allow        string
	}{
		// Every route on an account that does not exist.
		{"HEAD", "/v1/accounts/nobody", 404, ""},
		{"PUT", "/v1/accounts/newbie", 201, ""},
		{"DELETE", "/v1/accounts/nobody", 404, ""},
		{"GET", "/v1/fs/nobody/x", 404, ""},
		{"PUT", "/v1/fs/nobody/x", 404, ""},
		{"DELETE", "/v1/fs/nobody/x", 404, ""},
		{"GET", "/v1/stat/nobody/", 404, ""},
		{"GET", "/v1/list/nobody/", 404, ""},
		{"POST", "/v1/mkdir/nobody/d", 404, ""},
		{"POST", "/v1/rmdir/nobody/d", 404, ""},
		{"POST", "/v1/move/nobody?src=/a&dst=/b", 404, ""},
		{"POST", "/v1/copy/nobody?src=/a&dst=/b", 404, ""},
		{"GET", "/v1/rel/nobody/x", 400, ""},
		{"GET", "/v1/ns/nobody/", 404, ""},
		{"GET", "/v1/usage/nobody", 404, ""},
		{"GET", "/v1/stats", 200, ""},
		// A GET route serves a HEAD.
		{"HEAD", "/v1/stat/alice/x", 200, ""},
		{"HEAD", "/v1/fs/alice/x", 200, ""},
		{"HEAD", "/v1/fs/nobody/x", 404, ""},
		{"HEAD", "/v1/usage/alice", 200, ""},
		// A known verb with a method it has no route for.
		{"POST", "/v1/fs/alice/x", 405, "DELETE, GET, HEAD, PUT"},
		{"PATCH", "/v1/fs/alice/x", 405, "DELETE, GET, HEAD, PUT"},
		{"GET", "/v1/accounts/alice", 405, "DELETE, HEAD, PUT"},
		{"DELETE", "/v1/stat/alice/x", 405, "GET, HEAD"},
		{"GET", "/v1/mkdir/alice/d", 405, "POST"},
		{"PUT", "/v1/move/alice", 405, "POST"},
		{"POST", "/v1/stats", 405, "GET, HEAD"},
		// Unknown verbs, prefixes and spellings.
		{"GET", "/v1/bogus/alice/x", 404, ""},
		{"GET", "/v1/FS/alice/x", 404, ""},
		{"GET", "/v2/fs/alice/x", 404, ""},
		{"GET", "/v1/", 404, ""},
		{"GET", "/", 404, ""},
		// Extra or missing segments around the account.
		{"PUT", "/v1/accounts/alice/x", 404, ""},
		{"PUT", "/v1/accounts/alice/", 404, ""},
		{"PUT", "/v1/accounts/", 404, ""},
		{"GET", "/v1/stats/x", 404, ""},
		{"GET", "/v1/stats/", 404, ""},
		{"GET", "/v1/usage/alice/x", 404, ""},
		{"POST", "/v1/move/alice/x?src=/x&dst=/y", 404, ""},
		{"GET", "/v1/fs/", 404, ""},
		// Escaped segments are matched unescaped.
		{"GET", "/v1/%66s/alice/x", 200, ""},
		{"GET", "/v1/fs/al%69ce/x", 200, ""},
		{"GET", "/v1/fs/alice/%2E%2E/b", 400, ""},
	}
	for _, c := range cases {
		resp, _ := rawDo(t, hc, c.method, base+c.path)
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.status)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
	}
}

// TestDifferentialOverHTTP replays random traces through the full HTTP
// stack against the oracle model.
func TestDifferentialOverHTTP(t *testing.T) {
	fstest.RunDifferential(t, newProbedFS)
}
