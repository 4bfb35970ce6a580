package bench

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/httpapi"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/pathdb"
	"github.com/h2cloud/h2cloud/internal/ring"
	"github.com/h2cloud/h2cloud/internal/storemw"
)

// hotSink defeats dead-code elimination in the measurement loops.
var hotSink int

// hotpathCase is one measured hot path with its committed allocs/op
// ceiling. The ceiling is the contract checkHotPath holds: a change that
// pushes a hot path above it fails the bench-wallclock gate. Nothing else polices
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

	headNames := make([]string, 16)
	for i := range headNames {
		headNames[i] = fmt.Sprintf("hot/head%02d", i)
		if err := cl.Put(ctx, headNames[i], payload, nil); err != nil {
			return Result{}, fmt.Errorf("hotpath: %w", err)
		}
	}

	reg := metrics.NewRegistry()
	stacked := storemw.Stack(cl, storemw.Retry(reg), storemw.Metrics(reg))

	coldPaths, coldFS, err := coldTree(reloadDirs, nil)
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	_, evictInsert := h2fs.EvictInsertLoop(evictResidents, false)
	_, evictNew := h2fs.EvictInsertLoop(evictResidents, true)
	bigMW, bigFS, err := bigRingDir(ringSize, 0)
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	// The same directory split into 16 extents.
	shardMW, shardFS, err := bigRingDir(ringSize, (ringSize+15)/16)
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	hugeDir := 100_000
	if quick {
		hugeDir = 20_000
	}
	hugeMW, _, err := bigRingDir(hugeDir, 0)
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	hugeMarker := fmt.Sprintf("child%06d", hugeDir/2)
	treeFS, err := templateTree()
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	deepMW, deepPath, err := deepFile(16)
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	deepFS := deepMW.FS("deep")
	writeMW, err := overwriteDir()
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	removeMW, err := overwriteDir()
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	renameMW, err := overwriteDir()
	if err == nil {
		err = renameMW.FS("w").WriteFile(bg(), "/w/f", payload)
	}
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: %w", err)
	}
	// The http/* rows drive the same two middlewares through the web API
	// over loopback TCP, so each subtracts from its h2fs/* row to the cost
	// of the client, net/http and the server.
	deepSrv := httptest.NewServer(httpapi.NewServer(deepMW))
	defer deepSrv.Close()
	writeSrv := httptest.NewServer(httpapi.NewServer(writeMW))
	defer writeSrv.Close()
	deepHTTP := httpapi.NewClient(deepSrv.URL, deepSrv.Client()).FS("deep")
	writeHTTP := httpapi.NewClient(writeSrv.URL, writeSrv.Client()).FS("w")

	scan := func(pathdb.Record) bool { hotSink++; return true }

	cases := []hotpathCase{
		{"codec/encode-namering", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hotSink += len(core.EncodeNameRing(src))
			}
		}},
		// The input's one copy, the tuple slice, the ring.
		{"codec/decode-namering", 3, func(b *testing.B) {
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
		// The ring and its slice, grown once per input.
		{"merge/merged", 3, func(b *testing.B) {
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
		// The same Get through the store middleware h2fs stacks, Retry then
		// Metrics: observing the call allocates nothing, so the ceiling is
		// cluster/get's.
		{"storemw/get", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data, _, err := stacked.Get(ctx, "hot/object")
				if err != nil {
					b.Fatal(err)
				}
				hotSink += len(data)
			}
		}},
		// A healthy 16-name MultiHead through the same stack: the retry
		// ring looks for transient slots without allocating, so what is
		// left is the batch the cluster and the metrics ring build.
		{"storemw/multihead-16", 4, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range objstore.MultiHead(ctx, stacked, headNames) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
					hotSink += int(r.Info.Size)
				}
			}
		}},
		// A HEAD a primary answers places no handoff and allocates nothing.
		{"cluster/head", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				info, err := cl.Head(ctx, "hot/object")
				if err != nil {
					b.Fatal(err)
				}
				hotSink += int(info.Size)
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
		// The same PUT as a one-slot MultiPut over the ETag it replaces: the
		// check rides the sweep commit already makes, the durations stay on
		// the stack and a batch that landed returns a shared result, so the
		// ceiling is cluster/put's.
		{"cluster/put-if-match", 3, func(b *testing.B) {
			req := []objstore.PutReq{{Name: "hot/conditional", Data: payload}}
			for i := 0; i < b.N; i++ {
				req[0].IfMatch = req[0].ETag
				if err := cl.MultiPut(ctx, req)[0]; err != nil {
					b.Fatal(err)
				}
			}
		}},
		// A PUT of a new name then its DELETE: the put's three
		// allocations. The delete, one HEAD and three removals while no
		// write was ever diverted, allocates nothing.
		{"cluster/put-delete", 3, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := cl.Put(ctx, "hot/deleted", payload, nil); err != nil {
					b.Fatal(err)
				}
				if err := cl.Delete(ctx, "hot/deleted"); err != nil {
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
		// A Stat whose parent ring was evicted clean since its last use: the
		// stub wakes — no new descriptor — then one ring GET, one decode
		// that the descriptor owns — no own-chain probe, no re-merge — plus
		// the HEAD. What is left is the GET's copy, the decode's string,
		// tuple slice and ring, and the key the HEAD is sent for: the
		// watermarks parse into the descriptor's own slots. The ceiling is
		// the count at both scales.
		{"h2fs/reload-evicted", 5, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				info, err := coldFS.Stat(ctx, coldPaths[i%len(coldPaths)])
				if err != nil {
					b.Fatal(err)
				}
				hotSink += int(info.Size)
			}
		}},
		// A Stat 16 levels down with every descriptor on the path cached:
		// the walk consults 16 rings and allocates nothing per level. What
		// is left is the object key the HEAD is sent for.
		{"h2fs/stat-depth-16", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				info, err := deepFS.Stat(ctx, deepPath)
				if err != nil {
					b.Fatal(err)
				}
				hotSink += int(info.Size)
			}
		}},
		// The same Stat through the web API: the client's request, net/http
		// on both ends of a loopback connection, the server's dispatch and
		// the JSON reply. Of the 75 allocations above h2fs/stat-depth-16,
		// httpapi's are the URL, the reply buffer, the boxed Entry and the
		// JSON codec's; the rest are net/http's. The ceiling is the count at
		// both scales.
		{"http/stat-depth-16", 76, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				info, err := deepHTTP.Stat(ctx, deepPath)
				if err != nil {
					b.Fatal(err)
				}
				hotSink += int(info.Size)
			}
		}},
		// An overwrite of one file in one directory: the data PUT and the
		// patch PUT, with a flush every overwriteFlush ops so the patch
		// chain stays bounded. The ceiling is the count at both scales.
		{"h2fs/write-file", 14, overwriteLoop(writeMW, writeMW.FS("w"), payload, false)},
		// The same overwrite through the web API, its body read into one
		// buffer sized by its Content-Length. The ceiling is the count at
		// both scales.
		{"http/write-file", 82, overwriteLoop(writeMW, writeHTTP, payload, false)},
		// A write of one file in one directory, then its Remove: the data
		// PUT and its patch, then the tombstone patch and, only after it,
		// the DELETE of the bytes. The ceiling is the count at both scales.
		{"h2fs/write-remove", 21, overwriteLoop(removeMW, removeMW.FS("w"), payload, true)},
		// A RENAME of one file within /w, back and forth: the server-side
		// COPY, one patch carrying the new name's tuple and the old name's
		// tombstone, then the DELETE of the old name. The ceiling is the
		// count at both scales; a second patch PUT trips it.
		{"h2fs/rename", 10, renameLoop(renameMW)},
		// Waking a stub in a full cache of 1024: the hand releases the
		// descriptor under it, which becomes a stub in place, and the woken
		// one, released one step earlier, takes its slot a whole turn from
		// the hand.
		{"h2fs/evict-insert", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				evictInsert()
			}
		}},
		// Admitting a ring the full cache has never seen: the hand releases
		// one, and the new descriptor trades its released slot for one a
		// tenth of a turn ahead. What is left is the descriptor, its ring
		// key and its dirty-name set. The ceiling is the count at both
		// scales.
		{"h2fs/evict-new", 3, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				evictNew()
			}
		}},
		// A one-tuple patch folded into the monolithic ring this node wrote
		// last (WriteFile + FlushAll): the flush puts the ring object over
		// the tag it remembers and reads nothing, so the op holds no
		// decode-namering of that ring and no merge. The ceiling is the
		// count at both scales, far below what one decode would add —
		// falling back to GET + decode + merge measured 15 allocs/op more at
		// quick scale, 18 at full.
		{"h2fs/flush-validated", 28, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bigFS.WriteFile(ctx, "/big/f", payload); err != nil {
					b.Fatal(err)
				}
				if err := bigMW.FlushAll(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The same patch folded into the 16-extent directory: the flush
		// encodes the one dirty extent and puts it over its tag in a
		// MultiPut whose reported ETag is the new tag, then puts the
		// manifest over its own; it reads nothing. The ceiling is the count
		// at both scales; hashing the extent again for its tag would add
		// the ETag string and trip it.
		{"h2fs/flush-sharded", 37, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := shardFS.WriteFile(ctx, "/big/f", payload); err != nil {
					b.Fatal(err)
				}
				if err := shardMW.FlushAll(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// LIST of the ring above (1000 children at full scale), over the name
		// order it keeps: the entries, the path handling, nothing per child.
		{"h2fs/list-1000", 2, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				entries, err := bigFS.List(ctx, "/big", false)
				if err != nil {
					b.Fatal(err)
				}
				hotSink += len(entries)
			}
		}},
		// The detailed form adds the HEADs' results, their durations, the
		// page's keys, which are cut from one string, and the window's
		// makespan: its sorted copy and its worker loads. The ceiling is the
		// count at both scales.
		{"h2fs/list-detail-1000", 7, func(b *testing.B) {
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
		{"h2fs/list-page-of-100k", 2, func(b *testing.B) {
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
		// the store's: the engine holds a queue slot per task. The ceiling is
		// the count (805 at both scales) plus the one a pool refill has
		// added on some runs, so two more allocations per op trip it, let
		// alone one per task (a goroutine, a tracker, a context, a joined
		// label), per replica of the 72 objects a pass copies, an 8-key
		// patch-chain probe per namespace the RMDIR reclaims, or a read-back
		// of a ring the COPY wrote.
		{"h2fs/copy-rmdir-72", 806, func(b *testing.B) {
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
			"allocs/op is gated against the committed ceiling; ns/op and B/op are informational (wall clock)",
			"no simulated-cost figure (results/*.csv, the chaos/subtree/gcqueue/dirshard artifacts) reads these paths' wall clock",
		},
	}
	for _, c := range cases {
		r, err := benchWithin(c, rowLimit)
		if err != nil {
			return res, err
		}
		allocs := r.AllocsPerOp()
		status := "ok"
		if allocs > c.ceiling {
			status = "regress"
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
	return res, checkHotPath(res)
}

// checkHotPath holds the table to its contract: no row over its allocs/op
// ceiling, a hot set of at least ten rows that still holds the storemw and
// web API rungs, and ring placement at a ceiling of zero.
func checkHotPath(res Result) error {
	c := claims{res: res}
	c.check(len(res.Rows) >= 10, "hot set shrank to %d rows", len(res.Rows))
	var over []string
	ceilings := map[string]float64{}
	for _, row := range res.Rows {
		path := c.str(row, "path")
		ceilings[path] = c.num(row, "ceiling")
		if c.num(row, "allocs/op") > ceilings[path] {
			over = append(over, path)
		}
	}
	c.check(len(over) == 0, "allocs/op over the committed ceiling on %s", strings.Join(over, ", "))
	for _, rung := range []string{"storemw/get", "http/stat-depth-16", "http/write-file", "placement/partition"} {
		_, ok := ceilings[rung]
		c.check(ok, "hot set lost the %s row", rung)
	}
	if ceiling, ok := ceilings["placement/partition"]; ok {
		c.check(ceiling == 0, "placement/partition's ceiling is %.0f, want 0", ceiling)
	}
	return c.err()
}

// rowLimit bounds one row's testing.Benchmark. The slowest row takes
// about 2.5 s at -quick and 3 s at full scale on a 2-core host; a row past
// 20 times that is a path whose cost grows with every call, which would
// otherwise hang the gate.
const rowLimit = 60 * time.Second

// benchWithin runs c's benchmark and gives up on it after limit, failing
// with the row's name. A row given up on keeps running on its goroutine
// until the process exits, as the bench-wallclock gate's does at once.
func benchWithin(c hotpathCase, limit time.Duration) (testing.BenchmarkResult, error) {
	done := make(chan testing.BenchmarkResult, 1)
	go func() { done <- testing.Benchmark(c.bench) }()
	//h2vet:ignore virtualtime the hotpath rows measure the wall clock, so their timeout is wall-clock too
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case r := <-done:
		return r, nil
	case <-timer.C:
		return testing.BenchmarkResult{}, fmt.Errorf("hotpath row %s ran past %v: its cost grows with every call", c.path, limit)
	}
}

// reloadDirs is how many single-file directories h2fs/reload-evicted
// cycles through under a two-descriptor cache: the root ring stays, and
// every Stat finds its parent ring evicted. evictResidents is the cache
// population h2fs/evict-insert and h2fs/evict-new run at.
const (
	reloadDirs     = 256
	evictResidents = 1024
)

// coldTree builds n flushed single-file directories behind a middleware
// whose descriptor cache holds two descriptors, restarts it, and walks the
// files once so that every ring has been loaded, evicted clean and left a
// stub. It returns the file paths in walk order. reg, when not nil, is the
// middleware's registry.
func coldTree(n int, reg *metrics.Registry) ([]string, *h2fs.AccountFS, error) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		return nil, nil, err
	}
	// A logical clock, so namespace UUIDs are the same on every run.
	tick := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { tick = tick.Add(time.Millisecond); return tick }
	mw, err := h2fs.New(h2fs.Config{Store: cl, Node: 1, Clock: clock, DescCacheLimit: 2, Metrics: reg})
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

// overwriteFlush is how many iterations h2fs/write-file, http/write-file
// and h2fs/write-remove run between flushes: without one, every write or
// remove would leave a patch object in the store for the rest of the run.
const overwriteFlush = 1024

// overwriteDir builds account "w" with an empty directory /w behind a
// middleware over a zero-cost cluster.
func overwriteDir() (*h2fs.Middleware, error) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		return nil, err
	}
	mw, err := h2fs.New(h2fs.Config{Store: cl, Node: 1})
	if err != nil {
		return nil, err
	}
	if err := mw.CreateAccount(bg(), "w"); err != nil {
		return nil, err
	}
	return mw, mw.FS("w").Mkdir(bg(), "/w")
}

// overwriteLoop overwrites /w/f through fs, and removes it again when
// remove is set, flushing mw's rings every overwriteFlush ops.
func overwriteLoop(mw *h2fs.Middleware, fs fsapi.FileSystem, payload []byte, remove bool) func(b *testing.B) {
	return func(b *testing.B) {
		ctx := bg()
		for i := 0; i < b.N; i++ {
			if err := fs.WriteFile(ctx, "/w/f", payload); err != nil {
				b.Fatal(err)
			}
			if remove {
				if err := fs.Remove(ctx, "/w/f"); err != nil {
					b.Fatal(err)
				}
			}
			if i%overwriteFlush == overwriteFlush-1 {
				if err := mw.FlushAll(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// renameLoop renames mw's /w/f to /w/g and back, one rename per
// iteration, flushing every overwriteFlush renames. The count runs on
// across the benchmark's calls, so each starts where the last one left
// the file.
func renameLoop(mw *h2fs.Middleware) func(b *testing.B) {
	names := [2]string{"/w/f", "/w/g"}
	n := 0
	return func(b *testing.B) {
		ctx := bg()
		fs := mw.FS("w")
		for i := 0; i < b.N; i, n = i+1, n+1 {
			if err := fs.Move(ctx, names[n%2], names[1-n%2]); err != nil {
				b.Fatal(err)
			}
			if n%overwriteFlush == overwriteFlush-1 {
				if err := mw.FlushAll(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// deepFile writes one file depth levels down behind a middleware over a
// zero-cost cluster and Stats it once, so every descriptor on its path is
// cached. It returns the middleware and the file's path; the account is
// "deep".
func deepFile(depth int) (*h2fs.Middleware, string, error) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		return nil, "", err
	}
	mw, err := h2fs.New(h2fs.Config{Store: cl, Node: 1})
	if err != nil {
		return nil, "", err
	}
	ctx := bg()
	if err := mw.CreateAccount(ctx, "deep"); err != nil {
		return nil, "", err
	}
	fs := mw.FS("deep")
	dir := ""
	for i := 1; i < depth; i++ {
		dir += fmt.Sprintf("/d%02d", i)
		if err := fs.Mkdir(ctx, dir); err != nil {
			return nil, "", err
		}
	}
	path := dir + "/f"
	if err := fs.WriteFile(ctx, path, []byte("x")); err != nil {
		return nil, "", err
	}
	_, err = fs.Stat(ctx, path)
	return mw, path, err
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
// zero-cost cluster whose directories shard past threshold children (0:
// never). Unsharded, /big is a monolithic ring of n tuples whose tag the
// descriptor remembers; sharded, a manifest over extents whose tags it
// remembers.
func bigRingDir(n, threshold int) (*h2fs.Middleware, *h2fs.AccountFS, error) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		return nil, nil, err
	}
	mw, err := h2fs.New(h2fs.Config{Store: cl, Node: 1, Profile: cluster.CostProfile{DirShardThreshold: threshold}})
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
