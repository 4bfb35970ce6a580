// Package metrics provides the lightweight operation counters and latency
// histograms behind the H2Middleware's monitoring module (paper §4.2
// lists "system monitoring" among the middleware's components).
//
// A Registry tracks named operations; each records a count, an error
// count, and a log2-bucketed latency histogram cheap enough for the data
// path. Snapshots serialize to JSON through the web API's /v1/stats.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// nBuckets covers 1µs .. ~17min in powers of two.
const nBuckets = 31

// opStats is one operation's live counters.
type opStats struct {
	count   atomic.Int64
	errors  atomic.Int64
	sumNano atomic.Int64
	buckets [nBuckets]atomic.Int64
}

// Registry tracks a set of named operations. The zero value is ready to
// use. It never reads a clock: callers measure the durations they
// Observe.
type Registry struct {
	mu       sync.RWMutex
	ops      map[string]*opStats
	counters map[string]*atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ops: make(map[string]*opStats)}
}

// lookup fetches an existing operation under the read lock.
func (r *Registry) lookup(name string) (*opStats, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.ops[name]
	return s, ok
}

func (r *Registry) op(name string) *opStats {
	if s, ok := r.lookup(name); ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.ops[name]; ok {
		return s
	}
	if r.ops == nil {
		r.ops = make(map[string]*opStats)
	}
	s := &opStats{}
	r.ops[name] = s
	return s
}

// lookupCounter fetches an existing counter under the read lock.
func (r *Registry) lookupCounter(name string) (*atomic.Int64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.counters[name]
	return c, ok
}

// counter fetches or creates the named counter.
func (r *Registry) counter(name string) *atomic.Int64 {
	if c, ok := r.lookupCounter(name); ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	if r.counters == nil {
		r.counters = make(map[string]*atomic.Int64)
	}
	c := &atomic.Int64{}
	r.counters[name] = c
	return c
}

// Inc adds delta to the named event counter. Counters are the plain
// tallies behind fault-injection and degradation accounting (injected
// faults, retries, degraded reads); unlike operations they carry no
// latency. Inc on a nil registry is a no-op, so instrumented code paths
// need no nil checks.
func (r *Registry) Inc(name string, delta int64) {
	if r == nil {
		return
	}
	r.counter(name).Add(delta)
}

// Counter reads the named counter (0 if it was never incremented). Safe
// on a nil registry.
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	if c, ok := r.lookupCounter(name); ok {
		return c.Load()
	}
	return 0
}

// CounterSnapshot is one counter's aggregated view.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// counterNames returns the registered counter names, sorted, reading
// under the read lock.
func (r *Registry) counterNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Counters returns all event counters sorted by name. Safe on a nil
// registry (returns nil).
func (r *Registry) Counters() []CounterSnapshot {
	if r == nil {
		return nil
	}
	names := r.counterNames()
	out := make([]CounterSnapshot, 0, len(names))
	for _, name := range names {
		out = append(out, CounterSnapshot{Name: name, Value: r.Counter(name)})
	}
	return out
}

// bucketFor maps a duration to its log2 bucket index.
func bucketFor(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	us := d.Nanoseconds() / 1000
	b := 0
	for us > 0 && b < nBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// Observe records one completed operation.
func (r *Registry) Observe(name string, d time.Duration, err error) {
	s := r.op(name)
	s.count.Add(1)
	if err != nil {
		s.errors.Add(1)
	}
	s.sumNano.Add(d.Nanoseconds())
	s.buckets[bucketFor(d)].Add(1)
}

// OpSnapshot is one operation's aggregated view.
type OpSnapshot struct {
	Name   string        `json:"name"`
	Count  int64         `json:"count"`
	Errors int64         `json:"errors"`
	Mean   time.Duration `json:"meanNs"`
	// P50/P90/P99 are bucket-resolution estimates (upper bucket bound).
	P50 time.Duration `json:"p50Ns"`
	P90 time.Duration `json:"p90Ns"`
	P99 time.Duration `json:"p99Ns"`
}

// opNames returns the registered operation names, sorted, reading under
// the read lock.
func (r *Registry) opNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.ops))
	for name := range r.ops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns all operations sorted by name.
func (r *Registry) Snapshot() []OpSnapshot {
	names := r.opNames()
	out := make([]OpSnapshot, 0, len(names))
	for _, name := range names {
		s := r.op(name)
		snap := OpSnapshot{Name: name, Count: s.count.Load(), Errors: s.errors.Load()}
		if snap.Count > 0 {
			snap.Mean = time.Duration(s.sumNano.Load() / snap.Count)
		}
		var counts [nBuckets]int64
		total := int64(0)
		for i := range counts {
			counts[i] = s.buckets[i].Load()
			total += counts[i]
		}
		snap.P50 = percentile(counts[:], total, 0.50)
		snap.P90 = percentile(counts[:], total, 0.90)
		snap.P99 = percentile(counts[:], total, 0.99)
		out = append(out, snap)
	}
	return out
}

// percentile returns the upper bound of the bucket containing quantile q.
func percentile(buckets []int64, total int64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	target := int64(float64(total)*q + 0.5)
	if target < 1 {
		target = 1
	}
	acc := int64(0)
	for i, c := range buckets {
		acc += c
		if acc >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(nBuckets - 1)
}

// bucketUpper is the inclusive upper latency bound of bucket i.
func bucketUpper(i int) time.Duration {
	if i == 0 {
		return time.Microsecond
	}
	return time.Duration(int64(1)<<uint(i-1)) * 2 * time.Microsecond
}
