package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/pathdb"
	"github.com/h2cloud/h2cloud/internal/ring"
)

// hotSink defeats dead-code elimination in the measurement loops.
var hotSink int

// hotpathCase is one measured hot path with its committed allocs/op
// ceiling. The ceiling is the CI contract: a change that pushes a hot
// path above it fails the bench-wallclock gate. Nothing else polices
// allocations on these paths, so the codec, merge, scan and cluster
// ceilings are the measured counts themselves, per scale where -quick and
// full differ: one stray allocation per op — a one-element append, a
// []byte(string(b)), a fmt.Sprintf of a small integer — trips the gate.
// That is safe because allocs/op is total mallocs over b.N rounded down:
// a sync.Pool refill after a GC, a handful per run against thousands of
// iterations, cannot move it. The h2fs rows keep the headroom their
// comments argue for.
type hotpathCase struct {
	path    string
	ceiling int64
	bench   func(b *testing.B)
}

// HotPath measures real wall-clock ns/op and allocs/op for the
// simulator's hot set: the NameRing/directory codecs, ring placement,
// the patch-merge path, and pathdb range scans, plus the end-to-end
// cluster PUT/GET fan-out they feed. Unlike every other experiment this
// one reports wall-clock numbers, so its output varies run to run; only
// the allocs/op columns (which are deterministic) are gated: a path over
// its ceiling is an error, returned with the full table so the caller can
// still print it, and `make bench-wallclock` fails on it.
func HotPath(quick bool) (Result, error) {
	ringSize := 1000
	dirs, perDir := 100, 1000
	if quick {
		ringSize = 200
		dirs, perDir = 20, 200
	}

	// Shared fixtures, built once outside the timed loops.
	src := core.NewNameRing()
	other := core.NewNameRing()
	for i := 0; i < ringSize; i++ {
		src.Set(core.Tuple{Name: fmt.Sprintf("child%06d", i), Time: int64(i + 1)})
		other.Set(core.Tuple{Name: fmt.Sprintf("child%06d", i+ringSize/2), Time: int64(i + 7)})
	}
	encoded := core.EncodeNameRing(src)
	dirObj := core.DirObject{NS: "01.123456.789", Name: "projects", Created: 1_700_000_000_000_000_000}
	encodedDir := core.EncodeDir(dirObj)
	manifest := core.ShardManifest{Shards: 16, Gen: 3}
	encodedManifest := core.EncodeShardManifest(manifest)
	dirtyExtents := []int{1, 4, 6, 11, 13} // a steady flush's typical dirty set
	routeNames := make([]string, 256)
	for i := range routeNames {
		routeNames[i] = fmt.Sprintf("child%06d", i)
	}

	rg, err := ring.New(16, 3, benchDevices(8))
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct/%02d.1.1/NameRing/child%04d", i%16, i)
	}

	db := pathdb.New(pathdb.Costs{})
	ctx := bg()
	prefixes := make([]string, dirs)
	for i := 0; i < dirs; i++ {
		prefixes[i] = fmt.Sprintf("/d%03d/", i)
		for j := 0; j < perDir; j++ {
			db.Insert(ctx, pathdb.Record{Path: fmt.Sprintf("/d%03d/%06d", i, j)})
		}
	}

	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	payload := []byte("0123456789abcdef0123456789abcdef")
	if err := cl.Put(ctx, "hot/object", payload, nil); err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}

	coldPaths, coldFS, err := coldTree(reloadDirs)
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	evictInsert := h2fs.EvictInsertLoop(evictStripe)
	bigMW, bigFS, err := bigRingDir(ringSize)
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	hugeDir := 100_000
	if quick {
		hugeDir = 20_000
	}
	hugeMW, _, err := bigRingDir(hugeDir)
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	hugeMarker := fmt.Sprintf("child%06d", hugeDir/2)
	treeFS, err := templateTree()
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}

	scan := func(pathdb.Record) bool { hotSink++; return true }
	// at picks the ceiling of a path whose count depends on the ring size.
	at := func(quickCeiling, fullCeiling int64) int64 {
		if quick {
			return quickCeiling
		}
		return fullCeiling
	}

	cases := []hotpathCase{
		{"codec/encode-namering", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hotSink += len(core.EncodeNameRing(src))
			}
		}},
		{"codec/decode-namering", at(6, 8), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.DecodeNameRing(encoded)
				if err != nil {
					b.Fatal(err)
				}
				hotSink += r.TotalLen()
			}
		}},
		{"codec/encode-dir", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hotSink += len(core.EncodeDir(dirObj))
			}
		}},
		{"codec/decode-dir", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := core.DecodeDir(encodedDir)
				if err != nil {
					b.Fatal(err)
				}
				hotSink += len(d.NS)
			}
		}},
		{"codec/encode-manifest", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hotSink += len(core.EncodeShardManifest(manifest))
			}
		}},
		{"codec/decode-manifest", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := core.DecodeLayout(encodedManifest)
				if err != nil {
					b.Fatal(err)
				}
				hotSink += m.Shards
			}
		}},
		// One pass emits all requested extents: one buffer each plus the
		// slice holding them.
		{"codec/encode-extents", int64(len(dirtyExtents)) + 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hotSink += len(core.EncodeNameRingExtents(src, 16, dirtyExtents))
			}
		}},
		{"shard/route", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hotSink += core.ShardOf(routeNames[i%len(routeNames)], 16)
			}
		}},
		{"placement/partition", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hotSink += int(rg.Partition(keys[i%len(keys)]))
			}
		}},
		{"placement/devices-append", 0, func(b *testing.B) {
			var buf [8]int
			for i := 0; i < b.N; i++ {
				hotSink += len(rg.DevicesAppend(keys[i%len(keys)], buf[:0]))
			}
		}},
		{"placement/device-ids-append", 0, func(b *testing.B) {
			var buf [16]int
			for i := 0; i < b.N; i++ {
				hotSink += len(rg.DeviceIDsAppend(buf[:0]))
			}
		}},
		{"merge/merged", at(5, 11), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hotSink += core.Merged(src, other).TotalLen()
			}
		}},
		{"merge/live", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hotSink += len(src.Live())
			}
		}},
		{"pathdb/scan-prefix", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.ScanPrefix(ctx, prefixes[i%len(prefixes)], scan)
			}
		}},
		{"cluster/get", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data, _, err := cl.Get(ctx, "hot/object")
				if err != nil {
					b.Fatal(err)
				}
				hotSink += len(data)
			}
		}},
		// One PUT seals its payload once for all three replicas: the copy,
		// the Sealed, the ETag string.
		{"cluster/put", 3, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := cl.Put(ctx, "hot/object", payload, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// A server-side COPY re-stamps the stored version: a header, no
		// payload copy, no hash.
		{"cluster/copy", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := cl.Copy(ctx, "hot/object", "hot/copy"); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// A Stat whose parent ring was evicted clean since its last use:
		// one descriptor, one ring GET, one decode that the descriptor
		// then owns — no own-chain probe, no re-merge — plus the HEAD.
		{"h2fs/reload-evicted", 22, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				info, err := coldFS.Stat(ctx, coldPaths[i%len(coldPaths)])
				if err != nil {
					b.Fatal(err)
				}
				hotSink += int(info.Size)
			}
		}},
		// Inserting past the budget of a large stripe: the evictor unlinks
		// the cold end of the recency list and the stub reuses the evicted
		// descriptor's key.
		{"h2fs/evict-insert", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				evictInsert()
			}
		}},
		// A one-tuple patch folded into the monolithic ring this node wrote
		// last (WriteFile + FlushAll, 42 allocs/op): the flush HEADs the ring
		// object instead of fetching it, so the op holds no decode-namering
		// of that ring and no merge. The ceiling sits below what one decode
		// would add — falling back to GET + decode + merge measured 15
		// allocs/op more at quick scale, 18 at full — so that fallback trips
		// it.
		{"h2fs/flush-validated", 44, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bigFS.WriteFile(ctx, "/big/f", payload); err != nil {
					b.Fatal(err)
				}
				if err := bigMW.FlushAll(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// LIST of the ring above (1000 children at full scale), over the name
		// order it keeps: the entries, the path handling, nothing per child.
		{"h2fs/list-1000", 8, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				entries, err := bigFS.List(ctx, "/big", false)
				if err != nil {
					b.Fatal(err)
				}
				hotSink += len(entries)
			}
		}},
		// The detailed form adds the HEADs' results, their durations and the
		// page's keys, which are cut from one string.
		{"h2fs/list-detail-1000", 18, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				entries, err := bigFS.List(ctx, "/big", true)
				if err != nil {
					b.Fatal(err)
				}
				hotSink += len(entries)
			}
		}},
		// One 1000-entry page out of the middle of a 100 000-file directory
		// (20 000 at quick scale) costs what a whole LIST of 1000 costs: its
		// own length.
		{"h2fs/list-page-of-100k", 8, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				entries, next, err := hugeMW.ListPage(ctx, "big", "/big", false, hugeMarker, 1000)
				if err != nil || next == "" {
					b.Fatal(next, err)
				}
				hotSink += len(entries)
			}
		}},
		// The two O(n) walks back to back: COPY of the 72-entry template, then
		// the RMDIR that reclaims the copy — 126 engine tasks. What is left is
		// the store's: the engine holds a queue slot per task. One more
		// allocation per task (a goroutine, a tracker, a context, a joined
		// label — the parent engine paid all four) trips the ceiling, and so
		// does one per replica of the 72 objects a pass copies.
		{"h2fs/copy-rmdir-72", 1270, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := treeFS.Copy(ctx, "/template", "/w"); err != nil {
					b.Fatal(err)
				}
				if err := treeFS.Rmdir(ctx, "/w"); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	res := Result{
		Experiment: "hotpath",
		Title:      fmt.Sprintf("hot-path wall-clock microbenchmarks (NameRing size %d, pathdb %d records)", ringSize, dirs*perDir),
		Unit:       "ns/op",
		Header:     []string{"path", "ns/op", "B/op", "allocs/op", "ceiling", "status"},
		Notes: []string{
			"allocs/op is gated in CI against the committed ceiling; ns/op and B/op are informational (wall clock)",
			"pre-PR-8 full-scale baselines: encode-namering 5767 allocs/op, decode-namering 1025, partition 1, devices 2, merged 32, live 4, cluster/get 7, cluster/put 20",
			"all simulated-cost figures (results/*.csv, chaos/subtree/gcqueue artifacts) are unaffected: these paths changed wall-clock speed only",
			"pre-PR-16 baselines: h2fs/reload-evicted 31 allocs/op (own-chain probe, re-merge into an empty ring); h2fs/evict-insert 4 allocs/op and 27 KB (a candidate slice of the whole stripe, reflect-sorted per insert)",
			"pre-PR-18 baseline: h2fs/flush-validated 96 allocs/op and 411 KB/op at full scale (ring GET, decode, tuple-by-tuple merge); now 85 and 180 KB",
			"pre-PR-20 baselines: h2fs/list-1000 331 us and 107 KB/op (copy and sort all tuples), now 83 us and 57 KB; h2fs/list-detail-1000 1015 allocs/op (a key per child, an MD5 buffer per memo miss), now 15; h2fs/list-page-of-100k 39.7 ms and 4.86 MB/op, now 0.07 ms and 58 KB; merge/live 219 us, now 28 us; placement/partition 28 ns on a memo hit, now 173 ns on every call with no memo, lock or allocation behind it",
			"pre-PR-22 baseline: h2fs/copy-rmdir-72 3540 allocs/op and 2.2 ms (a goroutine, tracker, context, closure and joined label per task; fmt-built patch keys and miss errors), now 2650 and 0.9 ms",
			"pre-PR-24 baselines: cluster/put 12 allocs/op, 576 B and 1.5 us (a payload copy, an MD5 and an ETag string per replica), now 3, 160 B and 0.7 us; cluster/copy is new (a Get copy, then the same per replica; now a re-stamped header: 1 alloc, 96 B); h2fs/flush-validated 78 allocs/op and 177 KB/op at full scale, now 42 and 93 KB; h2fs/copy-rmdir-72 2650 allocs/op, 255 KB and 0.8 ms, now 1219, 138 KB and 0.5 ms",
		},
	}
	var over []string
	for _, c := range cases {
		r := testing.Benchmark(c.bench)
		allocs := r.AllocsPerOp()
		status := "ok"
		if allocs > c.ceiling {
			status = "regress"
			over = append(over, c.path)
		}
		res.Rows = append(res.Rows, []string{
			c.path,
			fmt.Sprintf("%.1f", float64(r.T.Nanoseconds())/float64(r.N)),
			fmt.Sprintf("%d", r.AllocedBytesPerOp()),
			fmt.Sprintf("%d", allocs),
			fmt.Sprintf("%d", c.ceiling),
			status,
		})
	}
	if len(over) > 0 {
		return res, fmt.Errorf("allocs/op over the committed ceiling on %s", strings.Join(over, ", "))
	}
	return res, nil
}

// reloadDirs is how many single-file directories h2fs/reload-evicted
// cycles through under a one-descriptor-per-stripe cache: eight rings per
// stripe, so every Stat finds its parent ring evicted. evictStripe is the
// stripe population h2fs/evict-insert runs at.
const (
	reloadDirs  = 256
	evictStripe = 1024
)

// coldTree builds n flushed single-file directories behind a middleware
// whose descriptor cache holds one descriptor per stripe, restarts it, and
// walks the files once so that every ring has been loaded, evicted clean
// and left a stub. It returns the file paths in walk order.
func coldTree(n int) ([]string, *h2fs.AccountFS, error) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		return nil, nil, err
	}
	// A logical clock, so namespace UUIDs — and with them which rings share
	// a stripe — are the same on every run.
	tick := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { tick = tick.Add(time.Millisecond); return tick }
	mw, err := h2fs.New(h2fs.Config{Store: cl, Node: 1, Clock: clock, DescCacheLimit: 1})
	if err != nil {
		return nil, nil, err
	}
	ctx := bg()
	if err := mw.CreateAccount(ctx, "cold"); err != nil {
		return nil, nil, err
	}
	fs := mw.FS("cold")
	paths := make([]string, n)
	for i := range paths {
		dir := fmt.Sprintf("/d%03d", i)
		paths[i] = dir + "/f"
		if err := fs.Mkdir(ctx, dir); err != nil {
			return nil, nil, err
		}
		if err := fs.WriteFile(ctx, paths[i], []byte("x")); err != nil {
			return nil, nil, err
		}
	}
	if err := mw.FlushAll(ctx); err != nil {
		return nil, nil, err
	}
	mw.Recover()
	for _, p := range paths {
		if _, err := fs.Stat(ctx, p); err != nil {
			return nil, nil, err
		}
	}
	return paths, fs, nil
}

// templateTree builds the benchmark's subtree_ops template — /template
// with 8 directories of 8 files, 72 entries — behind a middleware with
// eager GC over a zero-cost cluster, flushed.
func templateTree() (*h2fs.AccountFS, error) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		return nil, err
	}
	mw, err := h2fs.New(h2fs.Config{Store: cl, Node: 1, EagerGC: true})
	if err != nil {
		return nil, err
	}
	ctx := bg()
	if err := mw.CreateAccount(ctx, "tree"); err != nil {
		return nil, err
	}
	fs := mw.FS("tree")
	if err := fs.Mkdir(ctx, "/template"); err != nil {
		return nil, err
	}
	for d := 0; d < 8; d++ {
		dir := fmt.Sprintf("/template/sub%d", d)
		if err := populateDir(fs, dir, 8); err != nil {
			return nil, err
		}
	}
	return fs, mw.FlushAll(ctx)
}

// bigRingDir builds /big with n flushed files behind a middleware over a
// zero-cost cluster: a monolithic ring of n tuples whose tag the
// descriptor remembers.
func bigRingDir(n int) (*h2fs.Middleware, *h2fs.AccountFS, error) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		return nil, nil, err
	}
	mw, err := h2fs.New(h2fs.Config{Store: cl, Node: 1})
	if err != nil {
		return nil, nil, err
	}
	ctx := bg()
	if err := mw.CreateAccount(ctx, "big"); err != nil {
		return nil, nil, err
	}
	fs := mw.FS("big")
	if err := fs.Mkdir(ctx, "/big"); err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		if err := fs.WriteFile(ctx, fmt.Sprintf("/big/child%06d", i), []byte("x")); err != nil {
			return nil, nil, err
		}
	}
	return mw, fs, mw.FlushAll(ctx)
}

// benchDevices builds n uniform devices across 4 zones, mirroring the
// default cluster layout.
func benchDevices(n int) []ring.Device {
	ds := make([]ring.Device, n)
	for i := range ds {
		ds[i] = ring.Device{ID: i, Zone: i % 4, Weight: 1}
	}
	return ds
}
