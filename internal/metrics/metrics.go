// Package metrics provides the lightweight operation counters and latency
// histograms behind the H2Middleware's monitoring module (paper §4.2
// lists "system monitoring" among the middleware's components).
//
// A Registry tracks named operations; each records a count, an error
// count, and a log2-bucketed latency histogram cheap enough for the data
// path. Beside them it keeps one fixed request table, store requests by
// primitive and key kind. Snapshots serialize to JSON through the web
// API's /v1/stats.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/h2cloud/h2cloud/internal/core"
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
	requests [NumPrimitives][core.NumKeyKinds]requestCell
}

// Primitive is a store primitive as the cloud bills it.
type Primitive uint8

const (
	PrimGet Primitive = iota // Get, GetRange and each name of a MultiGet
	PrimPut
	PrimHead
	PrimDelete
	PrimCopy
	NumPrimitives
)

// String is the primitive's lower-case name.
func (p Primitive) String() string {
	return [NumPrimitives]string{"get", "put", "head", "delete", "copy"}[p]
}

// Requests is one cell of the request table: requests billed, and the
// payload bytes they moved (sent by a PUT, received by a GET).
type Requests struct {
	N     int64 `json:"n"`
	Bytes int64 `json:"bytes"`
}

type requestCell struct{ n, bytes atomic.Int64 }

// AddRequests bills n requests of primitive p on keys of kind k that
// moved bytes payload bytes. It takes no lock and looks nothing up.
func (r *Registry) AddRequests(p Primitive, k core.KeyKind, n, bytes int64) {
	c := &r.requests[p][k]
	c.n.Add(n)
	if bytes != 0 {
		c.bytes.Add(bytes)
	}
}

// RequestTable is a copy of the request table, indexed by primitive and
// key kind.
type RequestTable [NumPrimitives][core.NumKeyKinds]Requests

// Requests copies the request table.
func (r *Registry) Requests() RequestTable {
	var t RequestTable
	for p := range t {
		for k := range t[p] {
			c := &r.requests[p][k]
			t[p][k] = Requests{N: c.n.Load(), Bytes: c.bytes.Load()}
		}
	}
	return t
}

// Sub returns t minus base cell by cell: the requests made between two
// copies of one table.
func (t RequestTable) Sub(base RequestTable) RequestTable {
	for p := range t {
		for k := range t[p] {
			t[p][k].N -= base[p][k].N
			t[p][k].Bytes -= base[p][k].Bytes
		}
	}
	return t
}

// Named keys the table's non-zero cells by primitive name, then by key
// kind name: the form /v1/stats serves.
func (t RequestTable) Named() map[string]map[string]Requests {
	out := map[string]map[string]Requests{}
	for p, row := range t {
		cells := map[string]Requests{}
		for k, c := range row {
			if c.N > 0 {
				cells[core.KeyKind(k).String()] = c
			}
		}
		if len(cells) > 0 {
			out[Primitive(p).String()] = cells
		}
	}
	return out
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ops: make(map[string]*opStats)}
}

// find fetches name's entry from the map at m under the read lock.
func find[T any](r *Registry, m *map[string]*T, name string) (*T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := (*m)[name]
	return v, ok
}

// entry fetches name's entry from the map at m, creating it on first use.
func entry[T any](r *Registry, m *map[string]*T, name string) *T {
	if v, ok := find(r, m, name); ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := (*m)[name]; ok {
		return v
	}
	if *m == nil {
		*m = make(map[string]*T)
	}
	v := new(T)
	(*m)[name] = v
	return v
}

// sortedNames returns the keys of the map at m, sorted, read under the
// read lock.
func sortedNames[T any](r *Registry, m *map[string]*T) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(*m))
	for name := range *m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
	entry(r, &r.counters, name).Add(delta)
}

// Counter reads the named counter (0 if it was never incremented). Safe
// on a nil registry.
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	if c, ok := find(r, &r.counters, name); ok {
		return c.Load()
	}
	return 0
}

// CounterSnapshot is one counter's aggregated view.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Counters returns all event counters sorted by name. Safe on a nil
// registry (returns nil).
func (r *Registry) Counters() []CounterSnapshot {
	if r == nil {
		return nil
	}
	names := sortedNames(r, &r.counters)
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
	s := entry(r, &r.ops, name)
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

// Snapshot returns all operations sorted by name.
func (r *Registry) Snapshot() []OpSnapshot {
	names := sortedNames(r, &r.ops)
	out := make([]OpSnapshot, 0, len(names))
	for _, name := range names {
		s := entry(r, &r.ops, name)
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
