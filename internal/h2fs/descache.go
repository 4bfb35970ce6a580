package h2fs

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/h2cloud/h2cloud/internal/core"
)

// The File Descriptor Cache, hash-sharded. A single mutex-protected map
// made every operation — walks over disjoint namespaces included —
// serialize on one lock just to look a descriptor up. The cache is now
// descStripes independent stripes keyed by the (account, ns) pair a walk
// holds — the ring key is built once, with the descriptor — and routed by
// that key's hash.
//
// A lookup takes no lock, so the path walk writes nothing two clients
// share: a stripe is a chained hash table of atomic pointers. Every write
// holds the stripe lock, and a miss looks again under it before creating,
// so a ring never has two descriptors. A bounded cache's hit still locks,
// to record recency.
//
// Each stripe also enforces its slice of the cold-descriptor eviction
// cap (Config.DescCacheLimit): on insert past the budget, the
// least-recently-used *clean* descriptors are dropped. Clean means
// nothing unflushed and no live patch chain (descriptor.clean), so a
// reload rebuilds the exact same state from the store — eviction is
// invisible except for the reload cost. Evicted descriptors are flagged
// so a caller that raced the eviction (held the pointer, then took the
// monitor) retries the lookup via lockedDesc instead of mutating an
// orphan.
//
// A loaded descriptor evicted clean leaves a stub — its ring key in the
// stripe's settled set. Only this node writes its own patch chain, and a
// clean descriptor has none outstanding, so until the process restarts
// (Recover) that chain is provably empty: the descriptor re-created over
// a stub is marked settled and its load skips the own-chain probe, making
// the reload one ring GET plus the peer probes. A stub exists only while
// its descriptor does not (desc consumes it), so no path can leave a
// stale one behind a dirty descriptor; dropping one is always safe and
// costs a single probe.
const descStripes = 32

// settledLimit bounds one stripe's stub set. Like ring.partMemoLimit the
// set is reset wholesale when full: the rings it forgets probe once more.
const settledLimit = 4096

type descStripe struct {
	mu sync.Mutex
	// table is the bucket array, nil before the first insert: a power of
	// two indexed by the ring hash's bits above the stripe's.
	table atomic.Pointer[buckets]
	n     int // descriptors in table
	// hot and cold are the ends of the intrusive recency list threaded
	// through descriptor.hotter/colder: every lookup moves its descriptor
	// to the hot end, the evictor walks from the cold one.
	hot, cold *descriptor
	// settled holds the full ring key (never a fingerprint: a false hit
	// would silently skip a crash replay) of every stub.
	settled map[string]struct{}
}

type buckets []atomic.Pointer[descriptor]

func (b buckets) head(hash uint32) *atomic.Pointer[descriptor] {
	return &b[hash/descStripes&uint32(len(b)-1)]
}

// push links d in at the head of its chain, publishing it last.
func (b buckets) push(d *descriptor) {
	head := b.head(d.hash)
	d.next.Store(head.Load())
	head.Store(d)
}

// find walks the ring's chain without the lock. A writer racing it can
// cost a miss, never a wrong ring: every node is compared.
func (st *descStripe) find(account, ns string, hash uint32) *descriptor {
	b := st.table.Load()
	if b == nil {
		return nil
	}
	for d := b.head(hash).Load(); d != nil; d = d.next.Load() {
		if d.hash == hash && d.ns == ns && d.account == account {
			return d
		}
	}
	return nil
}

// grow publishes a bucket array twice the size (eight at first) with every
// descriptor relinked. No walk can loop: a relinked node points only at
// nodes relinked before it. The caller holds the stripe lock.
func (st *descStripe) grow() {
	var old buckets
	if p := st.table.Load(); p != nil {
		old = *p
	}
	b := make(buckets, max(8, 2*len(old)))
	for i := range old {
		for d := old[i].Load(); d != nil; {
			next := d.next.Load()
			b.push(d)
			d = next
		}
	}
	st.table.Store(&b)
}

// remove takes d out of its chain — its own link stays, so a reader on it
// walks on — and out of the recency list. The caller holds the stripe lock.
func (st *descStripe) remove(d *descriptor) {
	st.unlink(d)
	p := st.table.Load().head(d.hash)
	for p.Load() != d {
		p = &p.Load().next
	}
	p.Store(d.next.Load())
	st.n--
}

// each calls fn on every descriptor; the caller holds the stripe lock.
func (st *descStripe) each(fn func(*descriptor)) {
	if b := st.table.Load(); b != nil {
		for i := range *b {
			for d := (*b)[i].Load(); d != nil; d = d.next.Load() {
				fn(d)
			}
		}
	}
}

// touch makes d the stripe's most recently used descriptor, linking it in
// if it is new. The caller holds the stripe lock.
func (st *descStripe) touch(d *descriptor) {
	if st.hot == d {
		return
	}
	st.unlink(d)
	if d.colder = st.hot; st.hot != nil {
		st.hot.hotter = d
	} else {
		st.cold = d
	}
	st.hot = d
}

// unlink takes d out of the recency list (a no-op if it is not on it).
// The caller holds the stripe lock.
func (st *descStripe) unlink(d *descriptor) {
	if d.hotter != nil {
		d.hotter.colder = d.colder
	} else if st.hot == d {
		st.hot = d.colder
	}
	if d.colder != nil {
		d.colder.hotter = d.hotter
	} else if st.cold == d {
		st.cold = d.hotter
	}
	d.hotter, d.colder = nil, nil
}

// stripeOf is ShardOf(RingKey) without building the key, plus the hash
// whose higher bits pick the ring's bucket. The route must not move: which
// rings share a stripe decides whom that stripe's budget evicts.
func stripeOf(account, ns string) (stripe int, hash uint32) {
	hash = core.RingHash(account, ns)
	return int(hash % descStripes), hash
}

// desc returns (creating if needed) the cached descriptor for a ring.
// Callers that will lock the descriptor must go through lockedDesc so a
// concurrent eviction is retried, not ignored.
func (m *Middleware) desc(account, ns string) *descriptor {
	i, hash := stripeOf(account, ns)
	st := &m.stripes[i]
	d := st.find(account, ns, hash)
	if d != nil && m.descStripeCap == 0 {
		return d // an unbounded cache never evicts: recency is moot
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// Every writer of the table and of evicted holds this lock.
	if d == nil || d.evicted {
		if d = st.find(account, ns, hash); d == nil {
			d = newDescriptor(account, ns, hash)
			m.insertLocked(st, d)
		}
	}
	if m.descStripeCap > 0 {
		st.touch(d)
	}
	return d
}

// insertLocked publishes a new descriptor in its stripe — consuming the
// stub of the one it replaces, if any — and evicts past the budget. The
// caller holds the stripe lock.
func (m *Middleware) insertLocked(st *descStripe, d *descriptor) {
	d.settled = m.unsettleLocked(st, d.key)
	if b := st.table.Load(); b == nil || st.n == len(*b) {
		st.grow()
	}
	st.table.Load().push(d)
	st.n++
	m.reg.Inc("descCache.size", 1)
	m.evictColdLocked(st)
}

// settleLocked leaves a stub for an evicted descriptor; the caller holds
// the stripe lock.
func (m *Middleware) settleLocked(st *descStripe, key string) {
	if len(st.settled) >= settledLimit {
		m.reg.Inc("descCache.settled", int64(-len(st.settled)))
		clear(st.settled)
	}
	if st.settled == nil {
		st.settled = make(map[string]struct{})
	}
	st.settled[key] = struct{}{}
	m.reg.Inc("descCache.settled", 1)
}

// unsettleLocked removes a ring's stub, reporting whether there was one;
// the caller holds the stripe lock.
func (m *Middleware) unsettleLocked(st *descStripe, key string) bool {
	if _, ok := st.settled[key]; !ok {
		return false
	}
	delete(st.settled, key)
	m.reg.Inc("descCache.settled", -1)
	return true
}

// evictColdLocked enforces the stripe's share of the descriptor cap,
// called with the stripe lock held after an insert. Candidates are
// scanned coldest-first; each is TryLocked (a busy descriptor is hot by
// definition) and dropped only if clean. The descriptor being inserted
// is not on the recency list yet, so it is never a candidate. A
// descriptor that never loaded is clean but knows nothing about its
// chain, so only one that did load (or was itself re-created over a stub)
// leaves a stub.
func (m *Middleware) evictColdLocked(st *descStripe) {
	budget := m.descStripeCap
	if budget <= 0 {
		return
	}
	var next *descriptor
	for d := st.cold; d != nil && st.n > budget; d = next {
		next = d.hotter // read before an eviction unlinks d
		if !d.mu.TryLock() {
			continue
		}
		ok := d.clean()
		if ok {
			d.evicted = true
			st.remove(d)
			if d.loaded || d.settled {
				m.settleLocked(st, d.key)
			}
		}
		d.mu.Unlock()
		if ok {
			m.reg.Inc("descCache.size", -1)
			m.reg.Inc("descCache.evicted", 1)
		}
	}
}

// dropDesc removes a descriptor (after its ring is garbage collected),
// and the stub an earlier eviction may have left in its place.
func (m *Middleware) dropDesc(account, ns string) {
	i, hash := stripeOf(account, ns)
	st := &m.stripes[i]
	st.mu.Lock()
	defer st.mu.Unlock()
	m.unsettleLocked(st, core.RingKey(account, ns))
	d := st.find(account, ns, hash)
	if d == nil {
		return
	}
	markEvicted(d)
	st.remove(d)
	m.reg.Inc("descCache.size", -1)
}

// snapshotStripe appends one stripe's descriptors to out under its lock.
func snapshotStripe(st *descStripe, out []*descriptor) []*descriptor {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.each(func(d *descriptor) { out = append(out, d) })
	return out
}

// cachedDescs snapshots the descriptor cache in sorted ring-key order
// across all stripes, so FlushAll's flush sequence is deterministic.
func (m *Middleware) cachedDescs() []*descriptor {
	var descs []*descriptor
	for i := range m.stripes {
		descs = snapshotStripe(&m.stripes[i], descs)
	}
	slices.SortFunc(descs, func(a, b *descriptor) int { return cmp.Compare(a.key, b.key) })
	return descs
}

// dropDescriptors empties the cache (simulated process restart). Every
// descriptor is flagged evicted under its monitor so an operation that
// raced the restart re-fetches a fresh descriptor instead of writing
// into a dropped one. The stubs go too: what the process knew about its
// own patch chains died with it, so every ring's next load probes.
func (m *Middleware) dropDescriptors() {
	dropped, stubs := 0, 0
	drain := func(st *descStripe) {
		st.mu.Lock()
		defer st.mu.Unlock()
		st.each(func(d *descriptor) {
			markEvicted(d)
			st.unlink(d)
		})
		st.table.Store(nil)
		dropped += st.n
		st.n = 0
		stubs += len(st.settled)
		st.settled = nil
	}
	for i := range m.stripes {
		drain(&m.stripes[i])
	}
	if dropped > 0 {
		m.reg.Inc("descCache.size", int64(-dropped))
	}
	if stubs > 0 {
		m.reg.Inc("descCache.settled", int64(-stubs))
	}
	m.rootsMu.Lock()
	defer m.rootsMu.Unlock()
	m.roots = make(map[string]string)
}

// markEvicted flags a descriptor under its monitor so a caller that
// raced the drop retries its lookup instead of mutating an orphan.
func markEvicted(d *descriptor) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.evicted = true
}

// EvictInsertLoop returns the evictor's steady state as a step function,
// for the hot-path benchmark (internal/bench cannot reach a stripe): one
// stripe at a budget of n loaded, clean descriptors, where each step
// inserts one more and so evicts — and leaves a stub for — the coldest.
// The descriptor a step inserts is the one evicted n steps earlier, so a
// step allocates only what insertLocked itself does.
func EvictInsertLoop(n int) (step func()) {
	m := &Middleware{descStripeCap: n}
	st := &m.stripes[0]
	lru := make([]*descriptor, n+1) // insertion order, hence eviction order
	for i := range lru {
		ns := "ns" + strconv.Itoa(i)
		lru[i] = newDescriptor("bench", ns, core.RingHash("bench", ns))
		lru[i].loaded = true
	}
	next := 0
	step = func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		d := lru[next]
		next = (next + 1) % len(lru)
		d.evicted = false
		m.insertLocked(st, d)
		st.touch(d)
	}
	for range lru[:n] {
		step()
	}
	return step
}
