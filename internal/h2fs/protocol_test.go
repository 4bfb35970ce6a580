package h2fs

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/h2cloud/h2cloud/internal/gossip"
)

// TestProtocolConvergenceRandomSchedules is the protocol-level property
// test: N middlewares apply random filesystem updates to shared
// directories, flush and gossip in random interleavings, and must all
// converge to identical directory listings. This is the eventual-
// consistency guarantee §3.3.2's asynchronous design rests on.
func TestProtocolConvergenceRandomSchedules(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			c := newCluster(t)
			bus := gossip.NewBus()
			ctx := context.Background()
			const nodes = 3
			mws := make([]*Middleware, nodes)
			for i := range mws {
				mws[i] = newMW(t, c, i+1, func(cfg *Config) { cfg.Gossip = bus })
			}
			mustNoErr(t, mws[0].CreateAccount(ctx, "acct"))
			dirs := []string{"/d0", "/d1", "/d2"}
			for _, d := range dirs {
				mustNoErr(t, mws[0].FS("acct").Mkdir(ctx, d))
			}
			mustNoErr(t, mws[0].FlushAll(ctx))
			bus.Pump(ctx)

			// Random interleaving of writes, removes, flushes, pumps.
			live := map[string]bool{}
			seq := 0
			for step := 0; step < 60; step++ {
				mw := mws[rng.Intn(nodes)]
				fs := mw.FS("acct")
				switch rng.Intn(5) {
				case 0, 1: // create a file
					seq++
					p := fmt.Sprintf("%s/f%03d", dirs[rng.Intn(len(dirs))], seq)
					mustNoErr(t, fs.WriteFile(ctx, p, []byte("x")))
					live[p] = true
				case 2: // remove an existing file through any node
					for p := range live {
						// Only remove files this node can already see.
						if _, err := fs.Stat(ctx, p); err == nil {
							mustNoErr(t, fs.Remove(ctx, p))
							delete(live, p)
						}
						break
					}
				case 3:
					mustNoErr(t, mw.FlushAll(ctx))
				case 4:
					bus.Pump(ctx)
				}
			}
			// Quiesce: repeated flush+pump rounds until nothing moves.
			for round := 0; round < 6; round++ {
				for _, mw := range mws {
					mustNoErr(t, mw.FlushAll(ctx))
				}
				if bus.Pump(ctx) == 0 && round > 0 {
					break
				}
			}
			// All nodes must agree with each other and with the model.
			for _, d := range dirs {
				var want []string
				ref, err := mws[0].FS("acct").List(ctx, d, false)
				mustNoErr(t, err)
				for _, e := range ref {
					want = append(want, e.Name)
				}
				for _, mw := range mws[1:] {
					got, err := mw.FS("acct").List(ctx, d, false)
					mustNoErr(t, err)
					if len(got) != len(want) {
						t.Fatalf("node %d sees %d entries in %s, node 1 sees %d",
							mw.Node(), len(got), d, len(want))
					}
					for i := range got {
						if got[i].Name != want[i] {
							t.Fatalf("node %d disagrees at %s[%d]: %s vs %s",
								mw.Node(), d, i, got[i].Name, want[i])
						}
					}
				}
			}
			// And the union must match the model's live set.
			total := 0
			for _, d := range dirs {
				entries, err := mws[0].FS("acct").List(ctx, d, false)
				mustNoErr(t, err)
				total += len(entries)
			}
			if total != len(live) {
				t.Fatalf("converged to %d files, model has %d", total, len(live))
			}
		})
	}
}

// TestOperationsSurviveReplicaFailure: with one replica of every object
// down, quorum writes and fall-through reads keep the filesystem fully
// functional — the availability the single-cloud design inherits from
// the object store.
func TestOperationsSurviveReplicaFailure(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "acct"))
	fs := m.FS("acct")
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	mustNoErr(t, fs.WriteFile(ctx, "/d/before", []byte("pre-failure")))
	mustNoErr(t, m.FlushAll(ctx))

	// Take down one storage node (of 8, 3 replicas -> quorum holds).
	c.SetNodeDown(0, true)

	data, err := fs.ReadFile(ctx, "/d/before")
	mustNoErr(t, err)
	if string(data) != "pre-failure" {
		t.Fatalf("read with node down = %q", data)
	}
	mustNoErr(t, fs.WriteFile(ctx, "/d/during", []byte("written-degraded")))
	mustNoErr(t, fs.Mkdir(ctx, "/d/sub"))
	entries, err := fs.List(ctx, "/d", false)
	mustNoErr(t, err)
	if len(entries) != 3 {
		t.Fatalf("List during failure = %d entries, want 3", len(entries))
	}
	mustNoErr(t, m.FlushAll(ctx))

	// Recover the node; anti-entropy repair restores its replicas.
	c.SetNodeDown(0, false)
	if n := c.Repair(context.Background(), 1); n == 0 {
		t.Log("repair found nothing to do (node 0 held no affected replicas)")
	}
	data, err = fs.ReadFile(ctx, "/d/during")
	mustNoErr(t, err)
	if string(data) != "written-degraded" {
		t.Fatalf("read after recovery = %q", data)
	}
}

// TestReadRepairAfterStaleReplica: a replica that missed an overwrite is
// brought back by Repair choosing the newest copy.
func TestReadRepairAfterStaleReplica(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "acct"))
	fs := m.FS("acct")
	mustNoErr(t, fs.WriteFile(ctx, "/f", []byte("v1")))

	// Fail one replica of the file object, then overwrite.
	res, err := m.resolve(ctx, "acct", "/f")
	mustNoErr(t, err)
	key := childKeyForTest("acct", res.parentNS, "f")
	devs := c.Ring().Devices(key)
	c.SetNodeDown(devs[0], true)
	mustNoErr(t, fs.WriteFile(ctx, "/f", []byte("v2")))
	c.SetNodeDown(devs[0], false)

	c.Repair(context.Background(), 1)
	stale, _, err := c.Node(devs[0]).Get(key)
	mustNoErr(t, err)
	if string(stale) != "v2" {
		t.Fatalf("replica holds %q after repair, want v2", stale)
	}
}

// childKeyForTest mirrors core.ChildKey without exporting it here.
func childKeyForTest(account, ns, name string) string {
	return account + "|" + ns + "::" + name
}

// TestManyAccountsIsolated: operations on one account never leak into
// another sharing the same cloud and middleware.
func TestManyAccountsIsolated(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1)
	ctx := context.Background()
	const users = 5
	for u := 0; u < users; u++ {
		acct := fmt.Sprintf("user%d", u)
		mustNoErr(t, m.CreateAccount(ctx, acct))
		fs := m.FS(acct)
		mustNoErr(t, fs.Mkdir(ctx, "/home"))
		mustNoErr(t, fs.WriteFile(ctx, "/home/mine", []byte(acct)))
	}
	for u := 0; u < users; u++ {
		fs := m.FS(fmt.Sprintf("user%d", u))
		data, err := fs.ReadFile(ctx, "/home/mine")
		mustNoErr(t, err)
		if string(data) != fmt.Sprintf("user%d", u) {
			t.Fatalf("user%d reads %q", u, data)
		}
		entries, err := fs.List(ctx, "/", false)
		mustNoErr(t, err)
		if len(entries) != 1 {
			t.Fatalf("user%d sees %d root entries", u, len(entries))
		}
	}
	// Deleting one account leaves the others intact.
	mustNoErr(t, m.DeleteAccount(ctx, "user0"))
	if _, err := m.FS("user1").ReadFile(ctx, "/home/mine"); err != nil {
		t.Fatalf("user1 damaged by user0 deletion: %v", err)
	}
}
