package h2fs

import (
	"context"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// The strawman synchronous protocol (§3.3.1) must be functionally
// equivalent — only slower and lock-bound.
func TestSyncProtocolConformance(t *testing.T) {
	fstest.Run(t, func(t *testing.T) fsapi.FileSystem {
		return newProbedMW(t, func(cfg *Config) { cfg.SyncProtocol = true }).FS("alice")
	})
}

func TestSyncProtocolWritesRingInline(t *testing.T) {
	c := newCluster(t)
	m := newMW(t, c, 1, func(cfg *Config) { cfg.SyncProtocol = true })
	ctx := context.Background()
	mustNoErr(t, m.CreateAccount(ctx, "alice"))
	before := c.Stats().Objects
	mustNoErr(t, m.FS("alice").WriteFile(ctx, "/f", []byte("x")))
	// Synchronous mode: the file object only — no patch objects linger,
	// the ring object was updated in place.
	if got := c.Stats().Objects - before; got != 1 {
		t.Fatalf("sync write created %d extra objects, want 1", got)
	}
	// A second middleware sees the write without any flush or gossip.
	m2 := newMW(t, c, 2)
	data, err := m2.FS("alice").ReadFile(ctx, "/f")
	mustNoErr(t, err)
	if string(data) != "x" {
		t.Fatalf("peer read = %q", data)
	}
	// FlushAll on the sync middleware has nothing left to do.
	st := c.Stats()
	mustNoErr(t, m.FlushAll(ctx))
	if c.Stats().Puts != st.Puts {
		t.Fatal("sync-mode flush performed writes")
	}
}

func TestSyncProtocolCostsMoreThanAsync(t *testing.T) {
	perWrite := func(sync bool) time.Duration {
		c, err := cluster.New(cluster.Config{Profile: cluster.SwiftProfile()})
		mustNoErr(t, err)
		m := newMW(t, c, 1, func(cfg *Config) {
			cfg.Profile = c.Profile()
			cfg.SyncProtocol = sync
		})
		ctx := context.Background()
		mustNoErr(t, m.CreateAccount(ctx, "alice"))
		fs := m.FS("alice")
		mustNoErr(t, fs.Mkdir(ctx, "/d"))
		tr := vclock.NewTracker()
		mustNoErr(t, fs.WriteFile(vclock.With(ctx, tr), "/d/f", []byte("x")))
		return tr.Elapsed()
	}
	async, sync := perWrite(false), perWrite(true)
	if sync <= async {
		t.Fatalf("synchronous write (%v) not costlier than asynchronous (%v)", sync, async)
	}
}
