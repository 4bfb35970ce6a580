package httpapi

import (
	"context"
	"errors"
	"testing"

	"github.com/h2cloud/h2cloud/internal/fsapi"
)

func TestResolveNSAndQuickAccessOverHTTP(t *testing.T) {
	client, _ := newStack(t)
	ctx := context.Background()
	mustOK(t, client.CreateAccount(ctx, "alice"))
	fs := client.FS("alice")
	mustOK(t, fs.Mkdir(ctx, "/deep"))
	mustOK(t, fs.Mkdir(ctx, "/deep/er"))
	mustOK(t, fs.WriteFile(ctx, "/deep/er/file", []byte("payload")))

	ns, err := client.ResolveNS(ctx, "alice", "/deep/er")
	mustOK(t, err)
	if ns == "" {
		t.Fatal("empty namespace")
	}
	data, err := client.ReadRelative(ctx, "alice", ns+"::file")
	mustOK(t, err)
	if string(data) != "payload" {
		t.Fatalf("quick access = %q", data)
	}
	if _, err := client.ResolveNS(ctx, "alice", "/missing"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("ResolveNS(missing) = %v", err)
	}
	if _, err := client.ResolveNS(ctx, "alice", "/deep/er/file"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("ResolveNS(file) = %v", err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	client, _ := newStack(t)
	ctx := context.Background()
	mustOK(t, client.CreateAccount(ctx, "alice"))
	fs := client.FS("alice")
	mustOK(t, fs.Mkdir(ctx, "/d"))
	mustOK(t, fs.WriteFile(ctx, "/d/f", []byte("x")))
	if _, err := fs.ReadFile(ctx, "/nope"); err == nil {
		t.Fatal("expected miss")
	}

	stats, err := client.Stats(ctx)
	mustOK(t, err)
	if stats.Cluster == nil || stats.Cluster.Objects == 0 {
		t.Fatalf("cluster stats missing: %+v", stats)
	}
	byName := map[string]int64{}
	for _, op := range stats.Ops {
		byName[op.Name] = op.Count
	}
	if byName["POST mkdir"] != 1 {
		t.Fatalf("mkdir count = %d (%v)", byName["POST mkdir"], byName)
	}
	if byName["PUT fs"] != 1 || byName["GET fs"] != 1 {
		t.Fatalf("fs op counts wrong: %v", byName)
	}
	if byName["store.put"] == 0 || stats.Requests["put"]["ring"].N == 0 {
		t.Fatalf("store rings not served: ops %v, requests %v", byName, stats.Requests)
	}
	// A 404 is a client error, not a server error, and the store misses
	// behind it (and behind every patch-chain probe) are answers, not
	// faults: neither a route nor a store op counts an error.
	if byName["store.get"] == 0 {
		t.Fatalf("store.get not observed: %v", byName)
	}
	for _, op := range stats.Ops {
		if op.Errors != 0 {
			t.Fatalf("unexpected errors: %+v", op)
		}
	}
}

// TestStatsClusterBehindStoreRings checks /v1/stats on a middleware
// with a registry: the cluster block reports the cloud the middleware
// was built over, not the retry and metrics rings stacked on it.
func TestStatsClusterBehindStoreRings(t *testing.T) {
	client, c, _, _ := newFaultableStack(t)
	ctx := context.Background()
	mustOK(t, client.CreateAccount(ctx, "alice"))
	stats, err := client.Stats(ctx)
	mustOK(t, err)
	if stats.Cluster == nil || stats.Cluster.Objects != c.Stats().Objects {
		t.Fatalf("cluster block = %+v, want the cluster's %+v", stats.Cluster, c.Stats())
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
