package httpapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/storemw"
)

// newFaultableStack builds a client/server pair whose cluster is exposed
// for failure injection, with the middleware's retry layer and counter
// registry configured.
func newFaultableStack(t *testing.T) (*Client, *cluster.Cluster, string) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	mw, err := h2fs.New(h2fs.Config{
		Store: c, Node: 1, EagerGC: true,
		Retry: storemw.DefaultRetryPolicy(), Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mw))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), c, ts.URL
}

// TestTransientErrorsSurviveTheWire checks the end-to-end typed-error
// contract: a transient cloud fault inside the middleware becomes a 503
// with Retry-After, and the client reconstructs the exact objstore
// sentinel so errors.Is-based retry logic works identically on both
// sides of the HTTP boundary.
func TestTransientErrorsSurviveTheWire(t *testing.T) {
	client, c, base := newFaultableStack(t)
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
	resp, err := http.Get(base + "/v1/fs/alice/f")
	mustOK(t, err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
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
	client, c, _ := newFaultableStack(t)
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
	client, _, _ := newFaultableStack(t)
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
