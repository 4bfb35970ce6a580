package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestClusterPersistsAcrossRestart: a DataDir-backed cluster reopened on
// the same directory serves everything written before the "restart",
// with usage gauges rebuilt from disk.
func TestClusterPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := Config{Profile: ZeroProfile(), DataDir: dir, Nodes: 4}

	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(ctx, "alpha", []byte("one"), map[string]string{"m": "1"}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(ctx, "beta", []byte("twotwo"), nil); err != nil {
		t.Fatal(err)
	}
	if err := c1.Delete(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg) // "restart"
	if err != nil {
		t.Fatal(err)
	}
	data, info, err := c2.Get(ctx, "beta")
	if err != nil || string(data) != "twotwo" {
		t.Fatalf("beta after restart = %q, %v", data, err)
	}
	if info.Size != 6 {
		t.Fatalf("info = %+v", info)
	}
	if _, _, err := c2.Get(ctx, "alpha"); err == nil {
		t.Fatal("deleted object resurrected after restart")
	}
	st := c2.Stats()
	if st.Objects != 1 || st.Bytes != 6 {
		t.Fatalf("rebuilt gauges = %+v, want 1 object / 6 bytes", st)
	}
}

// TestDiskClusterConcurrentClients: four clients put, copy and delete
// their own keys on one DataDir-backed cluster at once, as h2cloudd's
// request goroutines do, and a restart serves exactly what each left.
func TestDiskClusterConcurrentClients(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Profile: ZeroProfile(), DataDir: t.TempDir(), Nodes: 4}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const clients, rounds = 4, 25
	models := make([]map[string]string, clients)
	var wg sync.WaitGroup
	for w := range models {
		model := map[string]string{}
		models[w] = model
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("c%d/k%d", w, r%5)
				data := fmt.Sprintf("%s@%d", k, r)
				err := c.Put(ctx, k, []byte(data), nil)
				model[k] = data
				if err == nil && r%3 == 0 {
					err = c.Copy(ctx, k, k+".copy")
					model[k+".copy"] = data
				}
				if err == nil && r%4 == 0 {
					err = c.Delete(ctx, k)
					delete(model, k)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	c2, err := New(cfg) // "restart"
	if err != nil {
		t.Fatal(err)
	}
	var objects int64
	for _, model := range models {
		for k, want := range model {
			if data, _, err := c2.Get(ctx, k); err != nil || string(data) != want {
				t.Fatalf("%s after restart = %q, %v; want %q", k, data, err, want)
			}
		}
		objects += int64(len(model))
	}
	if st := c2.Stats(); st.Objects != objects {
		t.Fatalf("rebuilt gauges = %+v, want %d objects", st, objects)
	}
}

// TestDiskClusterReplication: replicas land on distinct persistent nodes.
func TestDiskClusterReplication(t *testing.T) {
	c, err := New(Config{Profile: ZeroProfile(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Put(ctx, "obj", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	replicas := 0
	for _, id := range c.Ring().DeviceIDs() {
		if _, err := c.Node(id).Head("obj"); err == nil {
			replicas++
		}
	}
	if want := c.Ring().ReplicaCount(); replicas != want {
		t.Fatalf("object on %d disk nodes, want %d", replicas, want)
	}
}
