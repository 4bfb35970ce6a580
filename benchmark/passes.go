package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/gossip"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// measuredRounds is fixed: every wall-clock end-to-end metric is the
// median of this many rounds, after one discarded warm-up round.
const measuredRounds = 5

// layerRounds is what the timed pass shrinks to when a single-workload
// run reports only per-layer metrics (-workload with -trace 1): the few
// per-layer numbers that come from the timed pass carry no bound, and
// the run has to fit the driver's time budget.
const layerRounds = 2

// tally counts what a pass attempted and what went wrong, across ops,
// populate ops and verification checks.
type tally struct {
	attempted, failed int64
	notes             []string
}

func (t *tally) fail(note string) {
	t.failed++
	t.attempted++
	t.notes = append(t.notes, note)
}

// setupClock accumulates the benchmark's set-up time: work done once per
// run (trace generation, verification) plus the median time to build and
// populate one system under test, of which a run builds seven or more.
// The median keeps one disturbed populate from moving the metric.
type setupClock struct {
	onceTotal time.Duration
	systems   []float64 // seconds
}

func (c *setupClock) once(d time.Duration)   { c.onceTotal += d }
func (c *setupClock) system(d time.Duration) { c.systems = append(c.systems, d.Seconds()) }

func (c *setupClock) seconds() float64 {
	s := c.onceTotal.Seconds()
	if len(c.systems) > 0 {
		s += median(c.systems)
	}
	return s
}

// round is what one timed round measured.
type round struct {
	wall       time.Duration
	cpu        time.Duration
	maintain   time.Duration // summed over clients
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	lat        []int64 // both clients' op latencies, ascending
}

// timedResult is the timed pass: tracing off, no wrappers, wall clock,
// two closed-loop clients on their own accounts.
type timedResult struct {
	rounds     []round
	ops        int64 // per round, both clients
	heapLiveMB float64
	heapSysMB  float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedClient is one closed-loop client: it sends its next op only after
// the reply to the previous one. Maintenance it triggers is a foreground
// stall inside the round's wall time but not an op sample.
func timedClient(fs fsapi.FileSystem, mw *h2fs.Middleware, ops []Op, every int, lat []int64) (maintain time.Duration, bad int64) {
	ctx := context.Background()
	for i := range ops {
		t0 := time.Now()
		ok := apply(ctx, fs, &ops[i])
		lat[i] = int64(time.Since(t0))
		if !ok {
			bad++
		}
		if every > 0 && (i+1)%every == 0 {
			m0 := time.Now()
			mw.MaintainOnce(ctx)
			maintain += time.Since(m0)
		}
	}
	return maintain, bad
}

func timedRound(e *env, s *spec, traces []*clientTrace, lat [][]int64, tl *tally) round {
	maintain := make([]time.Duration, len(traces))
	bad := make([]int64, len(traces))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range traces {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			maintain[c], bad[c] = timedClient(e.fs[c], e.mw, traces[c].ops, s.maintainEvery, lat[c])
		}(c)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	close(start)
	wg.Wait()
	r := round{wall: time.Since(t0)}
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcCycles, r.gcPause = m1.NumGC-m0.NumGC, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)
	for c := range traces {
		r.maintain += maintain[c]
		r.lat = append(r.lat, lat[c]...)
		tl.attempted += int64(len(traces[c].ops))
		tl.failed += bad[c]
	}
	r.lat = sortedCopy(r.lat)
	return r
}

// settledGC collects until what is left is what the program retains. One
// cycle only moves sync.Pool contents to the pools' victim caches, where
// they still count as live, and which scratch buffers are among them
// depends on when the last background cycle ran. The second cycle drops
// the victims, the third whatever a finalizer of the second released.
func settledGC() {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
}

// memoFlushNames are 16384 distinct four-letter names, all substrings of
// one string built before the heap's base reading.
var memoFlushNames = func() string {
	var b strings.Builder
	for i := 0; i < 16384; i++ {
		fmt.Fprintf(&b, "%04x", i)
	}
	return b.String()
}()

// flushPlacementMemo replaces whatever object names the cloud's ring
// memoised with names that own no heap. The memo keeps up to 8192 names
// (half a MiB of key strings) and is emptied wholesale when full, so the
// live heap is a sawtooth, and where on it a round ends depends on how
// many patch keys the two clients happened to probe. Twice the memo's
// limit of fresh names forces a reset and leaves only substrings of
// memoFlushNames behind; the memo's own table stays, fully grown.
func flushPlacementMemo(c *cluster.Cluster) {
	ring := c.Ring()
	for i := 0; i+4 <= len(memoFlushNames); i += 4 {
		ring.Partition(memoFlushNames[i : i+4])
	}
}

// timedPass runs the warm-up round and the measured rounds. Every round
// gets a fresh cloud, middleware and populated trees, built outside the
// timed window, and replays the same trace, so op counts are exact. The
// last round's system is verified against the model before it is dropped.
func timedPass(s *spec, traces []*clientTrace, seed int64, rounds int, setup *setupClock, tl *tally) (*timedResult, error) {
	res := &timedResult{}
	lat := make([][]int64, len(traces))
	for c, t := range traces {
		lat[c] = make([]int64, len(t.ops))
		res.ops += int64(len(t.ops))
	}
	var ms runtime.MemStats
	settledGC()
	runtime.ReadMemStats(&ms)
	heapBase := ms.HeapAlloc
	for r := 0; r <= rounds; r++ {
		t0 := time.Now()
		e, err := newEnv(s, cluster.ZeroProfile(), nil, probes{}, traces)
		if err != nil {
			return nil, err
		}
		tl.attempted += populateOps(traces)
		tl.failed += e.populate(s, traces, true)
		setup.system(time.Since(t0))
		rd := timedRound(e, s, traces, lat, tl)
		if r > 0 {
			res.rounds = append(res.rounds, rd)
		}
		if r == rounds {
			flushPlacementMemo(e.cluster)
			settledGC()
			runtime.ReadMemStats(&ms)
			res.heapLiveMB = (float64(ms.HeapAlloc) - float64(heapBase)) / (1 << 20)
			res.heapSysMB = float64(ms.HeapSys) / (1 << 20)
			t0 = time.Now()
			verify(e, traces, seed, tl)
			setup.once(time.Since(t0))
		}
		e.stop()
	}
	return res, nil
}

// each returns one value per measured round.
func (t *timedResult) each(fn func(r *round) float64) []float64 {
	out := make([]float64, len(t.rounds))
	for i := range t.rounds {
		out[i] = fn(&t.rounds[i])
	}
	return out
}

// soloRun replays each client's prefix in turn on the calling goroutine,
// with maintenance every K of a client's own ops as in the timed pass.
func soloRun(e *env, s *spec, traces []*clientTrace,
	doOp func(fs fsapi.FileSystem, op *Op) bool, maintain func()) (ops, failed int64) {
	for c, t := range traces {
		for i := range t.ops[:t.prefix] {
			if !doOp(e.fs[c], &t.ops[i]) {
				failed++
			}
			ops++
			if s.maintainEvery > 0 && (i+1)%s.maintainEvery == 0 {
				maintain()
			}
		}
	}
	return ops, failed
}

// countedResult is the counted pass: one client, the paper-calibrated
// cost profile, one virtual-clock tracker per op, the counting store
// wrapper, and a stepping clock, so that every count, byte and simulated
// millisecond repeats exactly.
type countedResult struct {
	ops        int64
	simNs      int64
	kindNs     [numKinds]int64
	kindN      [numKinds]int64
	maintainNs int64
	c          counts        // the measured section
	stats      cluster.Stats // cluster counters over the same section
	stored     cluster.Stats // usage after the final FlushAll
	live       snapshot      // the model at the end of the prefix, all clients
	evictions  int64
	cacheSize  int64
	extents    int64
	splits     int64
	broadcasts int64
	calls      []call // the store-call stream, populate included
	from       int    // index of the first measured call
}

func statsDelta(a, b cluster.Stats) cluster.Stats {
	a.Gets -= b.Gets
	a.Puts -= b.Puts
	a.Deletes -= b.Deletes
	a.Heads -= b.Heads
	a.Copies -= b.Copies
	return a
}

func countedPass(s *spec, traces []*clientTrace, layers bool, setup *setupClock, tl *tally) (*countedResult, error) {
	res := &countedResult{}
	pr := probes{store: &probeStore{codec: layers}, http: &httpProbe{}, bus: &countingBus{Bus: gossip.NewBus()}}
	if layers {
		pr.store.rec = &res.calls
	}
	clock := steppingClock()
	t0 := time.Now()
	e, err := newEnv(s, cluster.SwiftProfile(), clock, pr, traces)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	tl.attempted += populateOps(traces)
	tl.failed += e.populate(s, traces, false)
	setup.system(time.Since(t0))

	opTracker, maintTracker := vclock.NewTracker(), vclock.NewTracker()
	bg := context.Background()
	opCtx, maintCtx := vclock.With(bg, opTracker), vclock.With(bg, maintTracker)
	if s.http {
		// The client's context does not cross the wire; the handler
		// wrapper attaches the tracker on the server side instead.
		opCtx = bg
		pr.http.tracker.Store(opTracker)
	}

	res.from = len(res.calls)
	before, stats0 := pr.store.snapshot(), e.cluster.Stats()
	evict0, bcast0 := e.reg.Counter("descCache.evicted"), pr.bus.n.Load()
	ops, failed := soloRun(e, s, traces,
		func(fs fsapi.FileSystem, op *Op) bool {
			opTracker.Reset()
			ok := apply(opCtx, fs, op)
			ns := int64(opTracker.Elapsed())
			res.simNs += ns
			res.kindNs[op.Kind] += ns
			res.kindN[op.Kind]++
			return ok
		},
		func() {
			pr.store.maintenance.Store(true)
			e.mw.MaintainOnce(maintCtx)
			pr.store.maintenance.Store(false)
		})
	res.ops = ops
	tl.attempted += ops
	tl.failed += failed
	res.maintainNs = int64(maintTracker.Elapsed())
	res.c = pr.store.snapshot().sub(before)
	res.stats = statsDelta(e.cluster.Stats(), stats0)
	res.evictions = e.reg.Counter("descCache.evicted") - evict0
	res.broadcasts = pr.bus.n.Load() - bcast0
	res.cacheSize = e.reg.Counter("descCache.size")
	res.extents = e.reg.Counter("dirShard.extents")
	res.splits = e.reg.Counter("dirShard.splits")

	// The wrapper and the cluster count the same requests independently.
	st, it := res.stats, res.c.Items
	if st.Gets != it[pGet] || st.Puts != it[pPut] || st.Heads != it[pHead] ||
		st.Deletes != it[pDelete] || st.Copies != it[pCopy] {
		tl.fail("counted pass: store wrapper and cluster.Stats disagree on request counts")
	}
	if err := e.mw.FlushAll(bg); err != nil {
		tl.fail("counted pass: final FlushAll: " + err.Error())
	}
	res.stored = e.cluster.Stats()
	for _, t := range traces {
		res.live.liveBytes += t.atPrefix.liveBytes
		res.live.entries += t.atPrefix.entries
	}
	return res, nil
}

// tracedResult is the traced pass: one client, wall clock, spans recorded
// at every boundary the benchmark can interpose on.
type tracedResult struct {
	ops    int64
	tr     *tracer
	kind   [numKinds][]int64 // client-side latency per op kind
	opNs   []int64           // client-side latency per op, in trace order
	probes probes
}

func tracedPass(s *spec, traces []*clientTrace, setup *setupClock, tl *tally) (*tracedResult, error) {
	res := &tracedResult{tr: newTracer()}
	pr := probes{store: &probeStore{}, http: &httpProbe{}}
	res.probes = pr
	t0 := time.Now()
	e, err := newEnv(s, cluster.ZeroProfile(), nil, pr, traces)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	tl.attempted += populateOps(traces)
	tl.failed += e.populate(s, traces, true)
	setup.system(time.Since(t0))

	// Spans start with the measured section: populate traffic has no op
	// to belong to.
	pr.store.tr, pr.http.tr = res.tr, res.tr
	layer := "h2fs"
	if s.http {
		layer = "httpapi"
	}
	bg := context.Background()
	var opID int64
	ops, failed := soloRun(e, s, traces,
		func(fs fsapi.FileSystem, op *Op) bool {
			opID++
			t0 := time.Now()
			ctx, ref := res.tr.with(bg, spanRef{op: opID}, layer, op.Kind.String())
			ok := apply(ctx, fs, op)
			res.tr.end(ref, int64(len(op.Data)))
			d := int64(time.Since(t0))
			res.kind[op.Kind] = append(res.kind[op.Kind], d)
			res.opNs = append(res.opNs, d)
			return ok
		},
		func() {
			opID++
			ctx, ref := res.tr.with(bg, spanRef{op: opID}, "h2fs", "maintain")
			e.mw.MaintainOnce(ctx)
			res.tr.end(ref, 0)
		})
	res.ops = ops
	tl.attempted += ops
	tl.failed += failed
	return res, nil
}
