package bench

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/storemw"
)

// DirShard is the giant-directory sharding experiment. The paper's
// workloads put half a million files in one directory (§5.1); with a
// monolithic NameRing every Background Merger flush rewrites the whole
// ring object, so the per-patch write cost grows with m even though a
// patch carries one tuple. Hash-partitioned sub-ring extents
// (CostProfile.DirShardThreshold) cut the steady-state flush to one
// extent plus the manifest. Neither layout reads: the descriptor remembers
// the ETag of what it wrote last, and each put names it as its
// precondition, which the store checks. One row per directory size m,
// comparing the monolithic and 16-shard configurations on:
//
//   - per-patch ring bytes: ring-layer bytes one flush writes after a
//     single-file patch (checkDirShard: >= 4x reduction at m=500000)
//   - flush read bytes / GETs: ring-layer bytes and objects the same
//     flush fetches (checkDirShard at m=500000: 0 and 0 in both layouts)
//   - cold detailed-LIST latency: manifest + extent fan-out reads in one
//     overlapped window vs one monolithic mega-object GET
//   - crash convergence: the merger is killed between the extent writes
//     and the manifest flip; after restart + replay + scrub the orphan
//     count must be 0
//
// Like every simulated experiment the numbers are virtual-clock costs
// and deterministic; the experiment is dispatchable by name but kept out
// of the "all" list so the committed results/*.csv corpus is untouched.
func DirShard(quick bool) (Result, error) {
	sizes := []int{64000, 256000, 500000}
	if quick {
		sizes = []int{64000, 500000}
	}
	const shards = 16
	res := Result{
		Experiment: "dirshard",
		Title:      "giant-directory NameRing sharding: per-patch write bytes and detailed LIST",
		Unit:       "mixed",
		Header: []string{
			"m", "shards", "patch bytes (mono)", "patch bytes (sharded)",
			"reduction", "flush read bytes (mono)", "flush read bytes (sharded)",
			"flush GETs (mono)", "flush GETs (sharded)",
			"list mono (ms)", "list sharded (ms)", "crash orphans",
		},
		Notes: []string{
			"patch bytes = ring-layer bytes (ring, manifest, extents) one merger flush writes after a one-tuple patch",
			"flush read bytes / GETs = ring-layer bytes and objects the same flush fetches; an object put over its remembered ETag (If-Match) is not fetched",
			"the m=500000 row is gated: sharded per-patch bytes >= 4x below monolithic, flush read bytes and GETs 0 in both layouts",
			"crash cell: flush killed between extent writes and manifest flip; replay + scrub must converge with 0 orphans",
			"DirShardThreshold=0 (the default) never writes a manifest: Table 1 and results/*.csv are byte-identical",
		},
	}
	for _, m := range sizes {
		row, err := dirShardRun(m, shards)
		if err != nil {
			return res, fmt.Errorf("dirshard m=%d: %w", m, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, checkDirShard(res)
}

// checkDirShard holds the sweep to its claims: no crash cell leaves an
// orphan, and at the paper's half-million-file directory sharding writes
// at least 4x fewer ring bytes per patch, and the steady flush fetches
// nothing in either layout.
func checkDirShard(res Result) error {
	c := claims{res: res}
	c.check(len(res.Rows) >= 2, "%d sweep rows, want at least 2", len(res.Rows))
	var big []string
	for _, row := range res.Rows {
		m := c.str(row, "m")
		c.check(c.num(row, "crash orphans") == 0, "m=%s: orphans after the crashed split", m)
		if m == "500000" {
			big = row
		}
	}
	c.check(big != nil, "no m=500000 row")
	if big != nil {
		mono, sharded := c.num(big, "patch bytes (mono)"), c.num(big, "patch bytes (sharded)")
		c.check(mono >= 4*sharded, "m=500000: sharded patch bytes %.0f not 4x below monolithic %.0f", sharded, mono)
		c.check(c.num(big, "flush read bytes (mono)") == 0, "m=500000: the steady monolithic flush read ring bytes")
		c.check(c.num(big, "flush GETs (mono)") == 0, "m=500000: the steady monolithic flush issued ring GETs")
		c.check(c.num(big, "flush read bytes (sharded)") == 0, "m=500000: the steady sharded flush read ring bytes")
		c.check(c.num(big, "flush GETs (sharded)") == 0, "m=500000: the steady sharded flush issued ring GETs")
	}
	return c.err()
}

// dirShardRun drives one directory-size cell: a monolithic control and a
// sharded run (which doubles as the crash cell) on separate clusters.
func dirShardRun(m, shards int) ([]string, error) {
	mono, monoList, err := dirShardConfig(m, 0)
	if err != nil {
		return nil, fmt.Errorf("monolithic: %w", err)
	}
	// Threshold placing m live tuples (plus the measurement extras) in
	// exactly `shards` power-of-two extents.
	threshold := m/shards + 256
	sharded, shardList, err := dirShardConfig(m, threshold)
	if err != nil {
		return nil, fmt.Errorf("sharded: %w", err)
	}
	orphans, err := dirShardCrash(m, threshold)
	if err != nil {
		return nil, fmt.Errorf("crash: %w", err)
	}
	monoPut, shardPut := ringLayer(mono, metrics.PrimPut), ringLayer(sharded, metrics.PrimPut)
	monoGet, shardGet := ringLayer(mono, metrics.PrimGet), ringLayer(sharded, metrics.PrimGet)
	return []string{
		fmt.Sprintf("%d", m),
		fmt.Sprintf("%d", shards),
		fmt.Sprintf("%d", monoPut.Bytes),
		fmt.Sprintf("%d", shardPut.Bytes),
		fmt.Sprintf("%.1fx", float64(monoPut.Bytes)/float64(shardPut.Bytes)),
		fmt.Sprintf("%d", monoGet.Bytes),
		fmt.Sprintf("%d", shardGet.Bytes),
		fmt.Sprintf("%d", monoGet.N),
		fmt.Sprintf("%d", shardGet.N),
		fmt.Sprintf("%.2f", ms(monoList)),
		fmt.Sprintf("%.2f", ms(shardList)),
		fmt.Sprintf("%d", orphans),
	}, nil
}

// ringLayer sums the ring-layer cells of primitive p in a request table:
// rings and manifests (both at RingKey) and extents, not patches or file
// objects.
func ringLayer(t metrics.RequestTable, p metrics.Primitive) metrics.Requests {
	r, e := t[p][core.KeyRing], t[p][core.KeyExtent]
	return metrics.Requests{N: r.N + e.N, Bytes: r.Bytes + e.Bytes}
}

// dirShardConfig builds an m-child directory under the given threshold,
// reaches the steady state (split complete when threshold > 0), and
// measures one per-patch flush (its requests, from the middleware's
// request table) plus a cold detailed LIST page.
func dirShardConfig(m, threshold int) (metrics.RequestTable, time.Duration, error) {
	f, err := newDirShardFixture(m, threshold)
	if err != nil {
		return metrics.RequestTable{}, 0, err
	}
	// Reach steady state: the first flush after the ring injection does
	// the split (threshold > 0) or the first full rewrite (threshold 0).
	if err := f.patchAndFlush("extra1"); err != nil {
		return metrics.RequestTable{}, 0, err
	}
	// The measured cell: one single-tuple patch, one merger flush.
	before := f.mw.Metrics().Requests()
	if err := f.patchAndFlush("extra2"); err != nil {
		return metrics.RequestTable{}, 0, err
	}
	flush := f.mw.Metrics().Requests().Sub(before)

	// Cold detailed LIST of the first page through a fresh middleware:
	// ring load (manifest + extent window when sharded) + one multi-HEAD.
	cold, err := h2fs.New(h2fs.Config{Store: f.cluster, Node: 2, Profile: f.profile, Clock: f.clock})
	if err != nil {
		return metrics.RequestTable{}, 0, err
	}
	listTime, err := Measure(func(ctx context.Context) error {
		_, _, err := cold.ListPage(ctx, "bench", "/big", true, "", 1000)
		return err
	})
	if err != nil {
		return metrics.RequestTable{}, 0, err
	}
	return flush, listTime, nil
}

// dirShardCrash kills the split flush between the extent writes and the
// manifest flip, then verifies convergence: replay restores the patched
// view, scrub reclaims the abandoned extents, the retried split
// completes, and a final scrub finds zero orphans (the returned count).
func dirShardCrash(m, threshold int) (int, error) {
	f, err := newDirShardFixture(m, threshold)
	if err != nil {
		return -1, err
	}
	if err := f.mw.FS("bench").WriteFile(bg(), "/big/extra1", []byte("x")); err != nil {
		return -1, err
	}
	f.failFlip.Store(true)
	if err := f.mw.FlushAll(bg()); err == nil {
		return -1, fmt.Errorf("split flush survived the injected flip failure")
	}
	f.failFlip.Store(false)

	// Restart: descriptors drop, the patch chain replays, and the
	// half-written extents are unreferenced garbage for the scrubber.
	f.mw.Recover()
	entries, err := f.mw.FS("bench").List(bg(), "/big", false)
	if err != nil {
		return -1, err
	}
	if len(entries) != m+1 {
		return -1, fmt.Errorf("replay lost children: %d listed, want %d", len(entries), m+1)
	}
	rep, err := f.mw.Scrub(bg(), f.cluster.Names(), true)
	if err != nil {
		return -1, err
	}
	if rep.Reclaimed == 0 {
		return -1, fmt.Errorf("scrub reclaimed nothing after the crashed split")
	}
	// The retried flush completes the split; the final scrub must be
	// clean.
	if err := f.mw.FlushAll(bg()); err != nil {
		return -1, err
	}
	rep, err = f.mw.Scrub(bg(), f.cluster.Names(), false)
	if err != nil {
		return -1, err
	}
	return len(rep.Orphans), nil
}

// dirShardFixture is one cluster + middleware with an m-child /big
// directory, its ring injected directly (populating half a million
// children through WriteFile would swamp the fixture, and the flush
// paths under test only care about the stored ring).
type dirShardFixture struct {
	cluster  *cluster.Cluster
	mw       *h2fs.Middleware
	profile  cluster.CostProfile
	clock    func() time.Time
	failFlip atomic.Bool // see flipHook
}

func newDirShardFixture(m, threshold int) (*dirShardFixture, error) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	profile := cluster.SwiftProfile()
	profile.DirShardThreshold = threshold
	c, err := cluster.New(cluster.Config{Profile: profile, Clock: clock})
	if err != nil {
		return nil, err
	}
	f := &dirShardFixture{cluster: c, profile: profile, clock: clock}
	mw, err := h2fs.New(h2fs.Config{Store: storemw.Before(f.flipHook)(c), Node: 1, Profile: profile, Clock: clock})
	if err != nil {
		return nil, err
	}
	f.mw = mw
	if err := mw.CreateAccount(bg(), "bench"); err != nil {
		return nil, err
	}
	if err := mw.FS("bench").Mkdir(bg(), "/big"); err != nil {
		return nil, err
	}
	if err := mw.FlushAll(bg()); err != nil {
		return nil, err
	}
	// Locate /big's namespace from the flushed root ring, then inject the
	// m-tuple ring object beneath it.
	rootData, _, err := c.Get(bg(), core.RootKey("bench"))
	if err != nil {
		return nil, err
	}
	rootRing, _, err := c.Get(bg(), core.RingKey("bench", string(rootData)))
	if err != nil {
		return nil, err
	}
	ring, err := core.DecodeNameRing(rootRing)
	if err != nil {
		return nil, err
	}
	ns := ""
	for _, t := range ring.Live() {
		if t.Name == "big" {
			ns = t.NS
		}
	}
	if ns == "" {
		return nil, fmt.Errorf("/big missing from the flushed root ring")
	}
	big := core.NewNameRing()
	for i := 0; i < m; i++ {
		big.Set(core.Tuple{Name: fmt.Sprintf("f%06d", i), Time: int64(i + 1)})
	}
	if err := c.Put(bg(), core.RingKey("bench", ns), core.EncodeNameRing(big), nil); err != nil {
		return nil, err
	}
	return f, nil
}

// patchAndFlush submits one single-tuple patch and runs the Background
// Merger once.
func (f *dirShardFixture) patchAndFlush(name string) error {
	if err := f.mw.FS("bench").WriteFile(bg(), "/big/"+name, []byte("x")); err != nil {
		return err
	}
	return f.mw.FlushAll(bg())
}

// flipHook injects the crash between the extent writes and the manifest
// flip: while failFlip is set, every put of a manifest fails.
// chaos.FailOn cannot aim there, because its substring trigger on the
// RingKey also hits every extent key (they start with it). The extents'
// batch passes the hook slot by slot and reaches the cluster's native
// Batcher as one batch, so it charges one overlapped window.
func (f *dirShardFixture) flipHook(_ context.Context, _ storemw.Op, _ string, data []byte) error {
	if f.failFlip.Load() && core.IsShardManifest(data) {
		return fmt.Errorf("dirshard: injected crash before manifest flip: %w", objstore.ErrNodeDown)
	}
	return nil
}
