package h2fs

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/h2cloud/h2cloud/internal/core"
)

// The File Descriptor Cache: one chained hash table over the (account, ns)
// pair a walk holds. A lookup takes no lock, so the path walk writes nothing
// two clients share but a referenced bit, set once; every write holds the
// cache lock. Config.DescCacheLimit caps the residents, by CLOCK, and only
// a clean descriptor (nothing unflushed, no live patch chain) is released.
// One that had loaded stays as its own stub, settled: only this node writes
// its own chain, so until Recover that chain is provably empty, and the
// woken stub's load skips the own-chain probe. One that never loaded knows
// nothing of its chain and leaves the table. A caller that held a
// descriptor across its release finds it not resident and looks again. A
// new descriptor starts a tenth of a turn from the hand, so a ring read once
// leaves first; a stub woken soon after its release, a whole turn away.

// clockSteps caps how far one insert moves the hand: populating a tree
// leaves thousands of dirty residents, which an uncapped scan walked.
const clockSteps = 32

// stubLimit bounds the stubs. When it is reached they are forgotten
// wholesale: a forgotten ring probes once more.
const stubLimit = 32 * 4096

type descCache struct {
	mu       sync.Mutex
	table    atomic.Pointer[buckets] // nil before the first insert
	n        int                     // descriptors in table, stubs included
	stubs    int
	limit    int           // Config.DescCacheLimit; 0 = unlimited
	clock    []*descriptor // residents at their slots, swept by the hand; only under a limit
	hand     int
	releases int // releases so far, stamped into descriptor.releasedAt
}

// buckets is a power of two of chain heads, indexed by the ring hash.
type buckets []atomic.Pointer[descriptor]

func (b buckets) head(hash uint32) *atomic.Pointer[descriptor] {
	return &b[hash&uint32(len(b)-1)]
}

// push links d in at the head of its chain, publishing it last.
func (b buckets) push(d *descriptor) {
	head := b.head(d.hash)
	d.next.Store(head.Load())
	head.Store(d)
}

// find walks the ring's chain without the lock. A writer racing it can
// cost a miss, never a wrong ring: every node is compared.
func (c *descCache) find(account, ns string, hash uint32) *descriptor {
	b := c.table.Load()
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
// nodes relinked before it. The caller holds the cache lock.
func (c *descCache) grow() {
	var old buckets
	if p := c.table.Load(); p != nil {
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
	c.table.Store(&b)
}

// remove takes d out of its chain — its own link stays, so a reader on it
// walks on. The caller holds the cache lock.
func (c *descCache) remove(d *descriptor) {
	p := c.table.Load().head(d.hash)
	for p.Load() != d {
		p = &p.Load().next
	}
	p.Store(d.next.Load())
	c.n--
}

// each calls fn, which may remove it, on every descriptor in the table;
// the caller holds the cache lock.
func (c *descCache) each(fn func(*descriptor)) {
	if b := c.table.Load(); b != nil {
		for i := range *b {
			for d := (*b)[i].Load(); d != nil; d = d.next.Load() {
				fn(d)
			}
		}
	}
}

// unclock moves the last resident into slot i; the caller holds the lock.
func (c *descCache) unclock(i int) {
	last := len(c.clock) - 1
	c.clock[i] = c.clock[last]
	c.clock[i].slot = i
	c.clock[last] = nil
	c.clock = c.clock[:last]
}

// desc returns (creating or waking if needed) the resident descriptor for
// a ring. Callers that will lock the descriptor must go through lockedDesc
// so a concurrent release is retried, not ignored.
func (m *Middleware) desc(account, ns string) *descriptor {
	c, hash := &m.descs, core.RingHash(account, ns)
	if d := c.find(account, ns, hash); d != nil && d.resident.Load() {
		if !d.referenced.Load() {
			d.referenced.Store(true)
		}
		return d
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Every writer holds the lock, so what find returns under it is in the table.
	d := c.find(account, ns, hash)
	switch {
	case d == nil:
		d = newDescriptor(account, ns, hash)
		if b := c.table.Load(); b == nil || c.n == len(*b) {
			c.grow()
		}
		c.table.Load().push(d)
		c.n++
	case d.resident.Load():
		return d
	default: // a stub wakes
		c.stubs--
		m.reg.Inc("descCache.settled", -1)
	}
	m.admitLocked(d)
	return d
}

// admitLocked makes d resident and, under a limit, gives it a place on the
// clock. While the circle is full the hand sweeps; d takes the slot of the
// first descriptor released (a whole turn from the hand) and an overflowed
// circle sheds more. If nothing was released within clockSteps, d overflows
// too. Unless d is a stub woken within limit releases of its own, it trades
// that slot for the one max(1, limit/10) visits ahead: a ring read once
// leaves soon unless a hit sets its bit first (S3-FIFO's small queue, the
// recent stubs its ghosts). The caller holds the cache lock.
func (m *Middleware) admitLocked(d *descriptor) {
	c := &m.descs
	d.referenced.Store(false)
	d.resident.Store(true)
	m.reg.Inc("descCache.size", 1)
	if c.limit <= 0 {
		return
	}
	room := c.limit - 1 // the clock length that leaves d a slot
	for step := 0; step < clockSteps && len(c.clock) > room; step++ {
		c.hand %= len(c.clock)
		if v := c.clock[c.hand]; v == d || !m.sweepLocked(v) {
			c.hand++
		} else if room < c.limit {
			c.clock[c.hand], d.slot, room = d, c.hand, c.limit
			c.hand++
		} else {
			c.unclock(c.hand) // the hand now points at the one moved in
		}
	}
	if room < c.limit {
		d.slot = len(c.clock)
		c.clock = append(c.clock, d)
	} else if d.releasedAt == 0 || c.releases-d.releasedAt > c.limit {
		ahead := (c.hand + max(1, c.limit/10) - 1) % len(c.clock) // the hand's k-th visit
		v := c.clock[ahead]
		c.clock[d.slot], c.clock[ahead], v.slot, d.slot = v, d, d.slot, ahead
	}
}

// sweepLocked is one step of the hand, over v: a referenced resident loses
// its bit, a busy or dirty one stays, and a clean one is released, which
// it reports. TryLock keeps the cache lock from waiting on an operation.
func (m *Middleware) sweepLocked(v *descriptor) bool {
	if v.referenced.Load() {
		v.referenced.Store(false)
		return false
	}
	if !v.mu.TryLock() {
		return false
	}
	defer v.mu.Unlock()
	if !v.clean() {
		return false
	}
	m.releaseLocked(v)
	return true
}

// releaseLocked evicts the clean resident d, leaving a stub if it had loaded;
// the caller holds the cache lock and d's monitor, and unclocks d.
func (m *Middleware) releaseLocked(d *descriptor) {
	c := &m.descs
	if d.loaded || d.settled {
		if c.stubs >= stubLimit {
			c.each(func(s *descriptor) {
				if !s.resident.Load() {
					c.remove(s)
				}
			})
			m.reg.Inc("descCache.settled", int64(-c.stubs))
			c.stubs = 0
		}
		d.release()
		c.stubs++
		m.reg.Inc("descCache.settled", 1)
	} else {
		c.remove(d)
	}
	c.releases++
	d.releasedAt = c.releases
	d.resident.Store(false)
	m.reg.Inc("descCache.size", -1)
	m.reg.Inc("descCache.evicted", 1)
}

// retire marks d not resident under its monitor, so an operation inside it
// finishes first and every later one looks its ring up again.
func retire(d *descriptor) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resident.Store(false)
}

// dropDesc removes a ring's descriptor or stub (after its ring is garbage
// collected).
func (m *Middleware) dropDesc(account, ns string) {
	c := &m.descs
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.find(account, ns, core.RingHash(account, ns))
	switch {
	case d == nil:
		return
	case d.resident.Load():
		retire(d)
		m.reg.Inc("descCache.size", -1)
		if c.limit > 0 {
			c.unclock(d.slot)
		}
	default:
		c.stubs--
		m.reg.Inc("descCache.settled", -1)
	}
	c.remove(d)
}

// cachedDescs snapshots the residents in sorted ring-key order, so
// FlushAll's flush sequence is deterministic.
func (m *Middleware) cachedDescs() []*descriptor {
	c := &m.descs
	c.mu.Lock()
	defer c.mu.Unlock()
	var descs []*descriptor
	c.each(func(d *descriptor) {
		if d.resident.Load() {
			descs = append(descs, d)
		}
	})
	slices.SortFunc(descs, func(a, b *descriptor) int { return cmp.Compare(a.key, b.key) })
	return descs
}

// dropDescriptors empties the cache (simulated process restart), retiring
// every descriptor so an operation that raced the restart re-fetches a
// fresh one. The stubs go too: what the process knew about its own patch
// chains died with it, so every ring's next load probes.
func (m *Middleware) dropDescriptors() {
	c := &m.descs
	c.mu.Lock()
	defer c.mu.Unlock()
	c.each(retire)
	if residents := c.n - c.stubs; residents > 0 {
		m.reg.Inc("descCache.size", int64(-residents))
	}
	if c.stubs > 0 {
		m.reg.Inc("descCache.settled", int64(-c.stubs))
	}
	c.table.Store(nil)
	clear(c.clock)
	c.clock, c.n, c.stubs, c.hand = c.clock[:0], 0, 0, 0
	m.rootsMu.Lock()
	defer m.rootsMu.Unlock()
	m.roots = make(map[string]string)
}

// EvictInsertLoop returns the evictor's steady state as a step function,
// for the hot-path benchmark, with its middleware: a full clock of clean
// residents, where each step releases the descriptor under the hand and
// wakes the stub released one step earlier. With fresh, each step admits
// a ring new to the table instead: it never loads, so its release leaves
// no stub.
func EvictInsertLoop(n int, fresh bool) (m *Middleware, step func()) {
	m = &Middleware{descs: descCache{limit: n}}
	nss := make([]string, n+1)
	for i := range nss {
		m.desc("bench", "old"+strconv.Itoa(i)).loaded = true // residents no step names
		nss[i] = "ns" + strconv.Itoa(i)
	}
	next := 0
	step = func() {
		d := m.desc("bench", nss[next])
		next = (next + 1) % len(nss)
		d.loaded = !fresh
	}
	for range nss {
		step()
	}
	return m, step
}
