package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// DirShard is the giant-directory sharding experiment. The paper's
// workloads put half a million files in one directory (§5.1); with a
// monolithic NameRing every Background Merger flush rewrites the whole
// ring object, so the per-patch write cost grows with m even though a
// patch carries one tuple. Hash-partitioned sub-ring extents
// (CostProfile.DirShardThreshold) cut the steady-state flush to one
// extent plus the manifest. The read side is O(1) in both layouts: the
// descriptor remembers the ETag of what it wrote last, so the monolithic
// flush HEADs its ring object and fetches nothing, and the sharded one
// fetches the manifest alone. One row per directory size m, comparing
// the monolithic and 16-shard configurations on:
//
//   - per-patch ring bytes: ring-layer bytes one flush writes after a
//     single-file patch (the CI gate: >= 4x reduction at m=500000)
//   - flush read bytes / GETs: ring-layer bytes and objects the same
//     flush fetches (the CI gate at m=500000: monolithic 0 and 0,
//     sharded < 1 KiB)
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
			"flush read bytes / GETs = ring-layer bytes and objects the same flush fetches; a ring or extent validated by HEAD against a remembered ETag is not fetched (the sharded GET is the manifest)",
			"CI gates the m=500000 row: sharded per-patch bytes >= 4x below monolithic, monolithic flush read bytes and GETs both 0, sharded flush read bytes < 1 KiB",
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
	return res, nil
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
	return []string{
		fmt.Sprintf("%d", m),
		fmt.Sprintf("%d", shards),
		fmt.Sprintf("%d", mono.putBytes),
		fmt.Sprintf("%d", sharded.putBytes),
		fmt.Sprintf("%.1fx", float64(mono.putBytes)/float64(sharded.putBytes)),
		fmt.Sprintf("%d", mono.getBytes),
		fmt.Sprintf("%d", sharded.getBytes),
		fmt.Sprintf("%d", mono.gets),
		fmt.Sprintf("%d", sharded.gets),
		fmt.Sprintf("%.2f", ms(monoList)),
		fmt.Sprintf("%.2f", ms(shardList)),
		fmt.Sprintf("%d", orphans),
	}, nil
}

// dirShardConfig builds an m-child directory under the given threshold,
// reaches the steady state (split complete when threshold > 0), and
// measures one per-patch flush plus a cold detailed LIST page.
func dirShardConfig(m, threshold int) (ringTraffic, time.Duration, error) {
	f, err := newDirShardFixture(m, threshold)
	if err != nil {
		return ringTraffic{}, 0, err
	}
	// Reach steady state: the first flush after the ring injection does
	// the split (threshold > 0) or the first full rewrite (threshold 0).
	if err := f.patchAndFlush("extra1"); err != nil {
		return ringTraffic{}, 0, err
	}
	// The measured cell: one single-tuple patch, one merger flush.
	f.store.take()
	if err := f.patchAndFlush("extra2"); err != nil {
		return ringTraffic{}, 0, err
	}
	flush := f.store.take()

	// Cold detailed LIST of the first page through a fresh middleware:
	// ring load (manifest + extent window when sharded) + one multi-HEAD.
	cold, err := h2fs.New(h2fs.Config{Store: f.store, Node: 2, Profile: f.profile, Clock: f.clock})
	if err != nil {
		return ringTraffic{}, 0, err
	}
	listTime, err := Measure(func(ctx context.Context) error {
		_, _, err := cold.ListPage(ctx, "bench", "/big", true, "", 1000)
		return err
	})
	if err != nil {
		return ringTraffic{}, 0, err
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
	f.store.setFailFlip(true)
	if err := f.mw.FlushAll(bg()); err == nil {
		return -1, fmt.Errorf("split flush survived the injected flip failure")
	}
	f.store.setFailFlip(false)

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
	cluster *cluster.Cluster
	store   *dirShardStore
	mw      *h2fs.Middleware
	profile cluster.CostProfile
	clock   func() time.Time
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
	store := newDirShardStore(c)
	mw, err := h2fs.New(h2fs.Config{Store: store, Node: 1, Profile: profile, Clock: clock})
	if err != nil {
		return nil, err
	}
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
	return &dirShardFixture{cluster: c, store: store, mw: mw, profile: profile, clock: clock}, nil
}

// patchAndFlush submits one single-tuple patch and runs the Background
// Merger once.
func (f *dirShardFixture) patchAndFlush(name string) error {
	if err := f.mw.FS("bench").WriteFile(bg(), "/big/"+name, []byte("x")); err != nil {
		return err
	}
	return f.mw.FlushAll(bg())
}

// ringTraffic is the ring-layer traffic (rings, manifests, extents — not
// patches or file objects) of one measured window, both directions.
type ringTraffic struct {
	putBytes, getBytes int64
	gets               int
}

// dirShardStore wraps the cluster to count ring-layer traffic and to
// inject the crash between extent writes and manifest flip. It forwards
// the batch contract to the cluster's native Batcher so overlapped-window
// charging is preserved (interface embedding alone would hide it and
// silently serialize every fan-out).
type dirShardStore struct {
	objstore.Store
	batch objstore.Batcher

	mu       sync.Mutex
	traffic  ringTraffic
	failFlip bool
}

func newDirShardStore(c *cluster.Cluster) *dirShardStore {
	return &dirShardStore{Store: c, batch: c}
}

func ringLayer(name string) bool {
	return strings.HasSuffix(name, "::/NameRing/") || core.IsExtentKey(name)
}

func (s *dirShardStore) notePut(name string, n int) {
	if !ringLayer(name) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traffic.putBytes += int64(n)
}

func (s *dirShardStore) noteGet(name string, n int, err error) {
	if err != nil || !ringLayer(name) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traffic.getBytes += int64(n)
	s.traffic.gets++
}

// take returns the traffic tallied since the last take.
func (s *dirShardStore) take() ringTraffic {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.traffic
	s.traffic = ringTraffic{}
	return t
}

func (s *dirShardStore) setFailFlip(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failFlip = on
}

func (s *dirShardStore) flipArmed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failFlip
}

func (s *dirShardStore) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	// Anything that is not a plain ring is a manifest, well-formed or not.
	if lay, err := core.DecodeLayout(data); (err != nil || lay.Shards > 1) && s.flipArmed() {
		return fmt.Errorf("dirshard: injected crash before manifest flip: %w", objstore.ErrNodeDown)
	}
	s.notePut(name, len(data))
	return s.Store.Put(ctx, name, data, meta)
}

func (s *dirShardStore) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	data, info, err := s.Store.Get(ctx, name)
	s.noteGet(name, len(data), err)
	return data, info, err
}

func (s *dirShardStore) MultiGet(ctx context.Context, names []string) []objstore.GetResult {
	out := s.batch.MultiGet(ctx, names)
	for i, r := range out {
		s.noteGet(names[i], len(r.Data), r.Err)
	}
	return out
}

func (s *dirShardStore) MultiHead(ctx context.Context, names []string) []objstore.HeadResult {
	return s.batch.MultiHead(ctx, names)
}

func (s *dirShardStore) MultiPut(ctx context.Context, reqs []objstore.PutReq) []error {
	for _, r := range reqs {
		s.notePut(r.Name, len(r.Data))
	}
	return s.batch.MultiPut(ctx, reqs)
}

func (s *dirShardStore) MultiDelete(ctx context.Context, names []string) []error {
	return s.batch.MultiDelete(ctx, names)
}
