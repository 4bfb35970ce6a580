package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// newFaultableStack builds a client/server pair whose cluster is exposed
// for failure injection and whose middleware can be restarted, with the
// middleware reporting to a registry the caller passed.
func newFaultableStack(t *testing.T) (*Client, *cluster.Cluster, *h2fs.Middleware, string) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	mw, err := h2fs.New(h2fs.Config{
		Store: c, Node: 1, EagerGC: true, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mw))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), c, mw, ts.URL
}

// TestTransientErrorsSurviveTheWire checks the end-to-end typed-error
// contract: a transient cloud fault inside the middleware becomes a 503
// with Retry-After, and the client reconstructs the exact objstore
// sentinel so errors.Is-based retry logic works identically on both
// sides of the HTTP boundary.
func TestTransientErrorsSurviveTheWire(t *testing.T) {
	client, c, mw, base := newFaultableStack(t)
	ctx := context.Background()
	mustOK(t, client.CreateAccount(ctx, "alice"))
	fs := client.FS("alice")
	mustOK(t, fs.WriteFile(ctx, "/f", []byte("x")))
	if _, err := fs.ReadFile(ctx, "/f"); err != nil {
		t.Fatal(err)
	}

	// Every node down: reads hit a dead cloud, not a missing file.
	for _, id := range c.Ring().DeviceIDs() {
		c.SetNodeDown(id, true)
	}
	_, err := fs.ReadFile(ctx, "/f")
	if !errors.Is(err, objstore.ErrNodeDown) {
		t.Fatalf("ReadFile over dead cloud = %v, want ErrNodeDown", err)
	}
	if errors.Is(err, objstore.ErrNotFound) {
		t.Fatal("transient fault was conflated with not-found")
	}
	// Writes cannot reach quorum either.
	err = fs.WriteFile(ctx, "/g", []byte("y"))
	if !errors.Is(err, objstore.ErrNoQuorum) {
		t.Fatalf("WriteFile over dead cloud = %v, want ErrNoQuorum", err)
	}

	// The raw response is a 503 carrying Retry-After.
	unavailable := func(method, path string) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, method, base+path, nil)
		mustOK(t, err)
		resp, err := http.DefaultClient.Do(req)
		mustOK(t, err)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s status = %d, want 503", method, path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s: 503 response missing Retry-After", method, path)
		}
	}
	unavailable(http.MethodGet, "/v1/fs/alice/f")

	// A restart empties the root cache, so the account's root record
	// itself is unreadable now: still a dead cloud, not a missing account.
	mw.Recover()
	_, err = fs.ReadFile(ctx, "/f")
	if !errors.Is(err, objstore.ErrNodeDown) || errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("ReadFile over dead cloud after restart = %v, want ErrNodeDown", err)
	}
	unavailable(http.MethodGet, "/v1/fs/alice/f")
	unavailable(http.MethodHead, "/v1/accounts/alice")
	if ok, err := client.AccountExists(ctx, "alice"); err == nil {
		t.Fatalf("AccountExists over dead cloud = %v, nil; want an error", ok)
	}

	// A genuinely missing file keeps its 404 semantics after recovery.
	for _, id := range c.Ring().DeviceIDs() {
		c.SetNodeDown(id, false)
	}
	if _, err := fs.ReadFile(ctx, "/nope"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("ReadFile(missing) after recovery = %v, want ErrNotFound", err)
	}
}

// TestStatsExposeRobustnessCounters checks that the middleware's retry
// counters ride along in /v1/stats.
func TestStatsExposeRobustnessCounters(t *testing.T) {
	client, c, _, _ := newFaultableStack(t)
	ctx := context.Background()
	mustOK(t, client.CreateAccount(ctx, "alice"))
	fs := client.FS("alice")
	mustOK(t, fs.WriteFile(ctx, "/f", []byte("x")))
	for _, id := range c.Ring().DeviceIDs() {
		c.SetNodeDown(id, true)
	}
	if _, err := fs.ReadFile(ctx, "/f"); err == nil {
		t.Fatal("read over dead cloud succeeded")
	}
	for _, id := range c.Ring().DeviceIDs() {
		c.SetNodeDown(id, false)
	}
	stats, err := client.Stats(ctx)
	mustOK(t, err)
	byName := map[string]int64{}
	for _, ctr := range stats.Counters {
		byName[ctr.Name] = ctr.Value
	}
	if byName["retry.attempts"] == 0 {
		t.Fatalf("retry.attempts missing from stats counters: %v", stats.Counters)
	}
}

// TestStatsExposeGCQueue checks that the reclamation-queue gauge rides
// along in /v1/stats when the durable queue is configured, and is simply
// absent when it is not.
func TestStatsExposeGCQueue(t *testing.T) {
	ctx := context.Background()
	client, _, _, _ := newFaultableStack(t)
	mustOK(t, client.CreateAccount(ctx, "alice"))
	stats, err := client.Stats(ctx)
	mustOK(t, err)
	if stats.GCQueue != nil {
		t.Fatalf("queue gauge present without GCQueue configured: %+v", stats.GCQueue)
	}

	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	mustOK(t, err)
	mw, err := h2fs.New(h2fs.Config{
		Store: c, Node: 1, GCQueue: true, Metrics: metrics.NewRegistry(),
	})
	mustOK(t, err)
	ts := httptest.NewServer(NewServer(mw))
	t.Cleanup(ts.Close)
	qc := NewClient(ts.URL, ts.Client())
	mustOK(t, qc.CreateAccount(ctx, "alice"))
	fs := qc.FS("alice")
	mustOK(t, fs.Mkdir(ctx, "/doomed"))
	mustOK(t, fs.WriteFile(ctx, "/doomed/f", []byte("x")))
	mustOK(t, fs.Rmdir(ctx, "/doomed"))

	stats, err = qc.Stats(ctx)
	mustOK(t, err)
	if stats.GCQueue == nil || stats.GCQueue.Pending != 1 || stats.GCQueue.Enqueued != 1 {
		t.Fatalf("queue gauge = %+v, want 1 pending / 1 enqueued", stats.GCQueue)
	}
	if _, err := mw.DrainGC(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err = qc.Stats(ctx)
	mustOK(t, err)
	if stats.GCQueue == nil || stats.GCQueue.Pending != 0 || stats.GCQueue.Reclaimed != 1 {
		t.Fatalf("queue gauge after drain = %+v, want 0 pending / 1 reclaimed", stats.GCQueue)
	}
}

// TestWireErrorsRoundTrip sends every wireErrors row's sentinel, wrapped,
// through writeErr and back through decodeErr: the status and the code
// are the row's, Retry-After is set iff the status is 503, and the client
// gets the sentinel of the first row carrying that code.
func TestWireErrorsRoundTrip(t *testing.T) {
	for i, row := range wireErrors {
		t.Run(fmt.Sprintf("%d_%s", i, row.code), func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeErr(rec, fmt.Errorf("x: %w", row.err))
			resp := rec.Result()
			if resp.StatusCode != row.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, row.status)
			}
			if retry := resp.Header.Get("Retry-After") != ""; retry != (row.status == http.StatusServiceUnavailable) {
				t.Fatalf("Retry-After set = %v on a %d", retry, row.status)
			}
			var ae apiError
			mustOK(t, json.Unmarshal(rec.Body.Bytes(), &ae))
			if ae.Code != row.code {
				t.Fatalf("code = %q, want %q", ae.Code, row.code)
			}
			var want error
			for _, r := range wireErrors {
				if r.code == row.code {
					want = r.err
					break
				}
			}
			if err := decodeErr(resp); !errors.Is(err, want) {
				t.Fatalf("decodeErr = %v, want %v", err, want)
			}
		})
	}
}
