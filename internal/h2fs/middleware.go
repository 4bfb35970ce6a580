// Package h2fs implements the H2Middleware (paper §4.2): the component
// that maps POSIX-like filesystem operations onto the flat PUT/GET/DELETE
// primitives of an object storage cloud using the Hierarchical Hash data
// structure.
//
// One Middleware corresponds to one "H2Middleware wrapping a Swift proxy
// server"; several can be deployed over the same cloud for load balancing,
// coordinating their NameRing replicas through patches and gossip
// (§3.3.2). Per-account filesystem views implementing fsapi.FileSystem
// are obtained with FS.
package h2fs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/gossip"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/storemw"
	"github.com/h2cloud/h2cloud/internal/uuid"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// Config describes one H2Middleware instance.
type Config struct {
	// Store is the underlying object storage cloud (Outbound API target).
	Store objstore.Store
	// Node is this middleware's node number, used in namespace UUIDs and
	// patch keys.
	Node int
	// Profile prices ring consultations served from the File Descriptor
	// Cache so that virtual operation time matches a store fetch; store
	// primitives charge themselves. Fanout bounds concurrent outbound
	// requests. A zero profile charges nothing.
	Profile cluster.CostProfile
	// Clock supplies tuple timestamps; defaults to time.Now.
	Clock func() time.Time
	// Gossip, when set, spreads NameRing update advertisements to peer
	// middlewares after flushes.
	Gossip gossip.Broadcaster
	// EagerGC makes RMDIR and account deletion reclaim subtree objects
	// synchronously (outside the measured operation cost). Without it,
	// reclamation is left to an explicit GC pass, matching the paper's
	// fake-deletion design.
	EagerGC bool
	// GCQueue enables the durable async reclamation queue: RMDIR and
	// account deletion record a crash-safe GC intent (two O(1) puts)
	// before the tombstone, and the maintenance loop drains the queue
	// through the pipelined walker (DrainGC). With EagerGC also set the
	// intent brackets the synchronous walk, so a crash mid-reclamation
	// is resumed instead of leaking the remainder.
	GCQueue bool
	// TombstoneTTL controls compaction of fake-deletion tombstones during
	// flushes: tombstones older than the TTL are really removed. Zero
	// keeps tombstones forever.
	TombstoneTTL time.Duration
	// Retry, when enabled (MaxAttempts > 1), installs the typed-error
	// retry loop between the middleware and the store: transient cloud
	// errors are retried with capped exponential backoff charged to the
	// virtual clock. The zero value performs no retries.
	Retry storemw.RetryPolicy
	// Metrics, when set, receives the middleware's robustness counters
	// (retry.attempts, retry.exhausted), the descriptor-cache gauges
	// (descCache.size, descCache.evicted, descCache.settled — stubs held
	// for clean-evicted rings — and descCache.probes.skipped, the own-chain
	// probes those stubs saved), and the directory-sharding counters
	// (dirShard.splits, dirShard.merges, dirShard.extents); it is exposed
	// via Metrics().
	Metrics *metrics.Registry
	// DescCacheLimit caps the File Descriptor Cache: past it, the
	// least-recently-used clean descriptors are evicted (a clean
	// descriptor reloads from the store byte-identically, so eviction only
	// costs the reload: one ring GET plus the peer-chain probes). Zero
	// keeps every descriptor forever, the original behavior.
	DescCacheLimit int
	// SyncProtocol enables the strawman synchronous NameRing maintenance
	// of §3.3.1: every mutation read-modify-writes the ring object before
	// returning, instead of submitting a patch for the Background Merger.
	// Kept for the ablation benchmark; the paper rejects it for the
	// availability and serialization costs it imposes.
	SyncProtocol bool
}

// Middleware is one H2Middleware instance.
type Middleware struct {
	store     objstore.Store
	node      int
	profile   cluster.CostProfile
	clock     func() time.Time
	bus       gossip.Broadcaster
	eagerGC   bool
	tombTTL   time.Duration
	syncProto bool
	gen       *uuid.Gen
	reg       *metrics.Registry

	// The File Descriptor Cache, hash-sharded into independent stripes
	// (see descache.go). descStripeCap is each stripe's share of
	// Config.DescCacheLimit (0 = unlimited).
	stripes       [descStripes]descStripe
	descStripeCap int

	rootsMu sync.Mutex
	roots   map[string]string // account -> root namespace UUID

	gcq        bool
	gcmu       sync.Mutex
	gcstates   map[string]*gcState     // account -> pending span mirror
	gcinflight map[string]map[int]bool // account -> seqs in the enqueue-to-ack window
	gcloaded   bool                    // gcstates primed from the durable index
	gcdraining atomic.Bool
	// gcidxmu serializes writes of the durable queue index so coverage is
	// monotone; gcidxheads records, per account, the highest sequence a
	// persisted snapshot covered (lock order: gcidxmu, then gcmu).
	gcidxmu    sync.Mutex
	gcidxheads map[string]int
}

// New builds a middleware. If cfg.Gossip is a *gossip.Bus, the middleware
// registers itself as node cfg.Node.
func New(cfg Config) (*Middleware, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("h2fs: Config.Store is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Profile.Fanout <= 0 {
		cfg.Profile.Fanout = 16
	}
	// Assemble the store middleware stack: retry innermost (each attempt
	// goes straight to the cloud), op-tracing metrics outermost so its
	// observations include retry-inflated service time.
	var layers []storemw.Layer
	if cfg.Retry.Enabled() {
		layers = append(layers, storemw.Retry(cfg.Retry, cfg.Metrics))
	}
	if cfg.Metrics != nil {
		layers = append(layers, storemw.Metrics(cfg.Metrics))
	}
	store := storemw.Stack(cfg.Store, layers...)
	m := &Middleware{
		store:      store,
		node:       cfg.Node,
		profile:    cfg.Profile,
		clock:      cfg.Clock,
		bus:        cfg.Gossip,
		eagerGC:    cfg.EagerGC,
		tombTTL:    cfg.TombstoneTTL,
		syncProto:  cfg.SyncProtocol,
		gen:        uuid.NewGen(cfg.Node, func() time.Time { return cfg.Clock() }),
		reg:        cfg.Metrics,
		roots:      make(map[string]string),
		gcq:        cfg.GCQueue,
		gcstates:   make(map[string]*gcState),
		gcinflight: make(map[string]map[int]bool),
		gcidxheads: make(map[string]int),
	}
	if cfg.DescCacheLimit > 0 {
		m.descStripeCap = (cfg.DescCacheLimit + descStripes - 1) / descStripes
	}
	if bus, ok := cfg.Gossip.(*gossip.Bus); ok && bus != nil {
		bus.Register(cfg.Node, m.handleGossip)
	} else if reg, ok := cfg.Gossip.(gossip.Registrar); ok {
		reg.Register(cfg.Node, m.handleGossip)
	}
	return m, nil
}

// Node returns the middleware's node number.
func (m *Middleware) Node() int { return m.node }

// Store returns the underlying object storage cloud (the Outbound API
// target), including the retry layer when one is configured.
func (m *Middleware) Store() objstore.Store { return m.store }

// Metrics returns the middleware's counter registry (nil when none was
// configured).
func (m *Middleware) Metrics() *metrics.Registry { return m.reg }

// Recover simulates a middleware process restart: every cached File
// Descriptor and root record is dropped, so subsequent operations reload
// NameRings from the store and replay any unmerged patch chains — the
// crash-recovery path the chaos experiments exercise. The GC-queue span
// mirror is dropped too, so the next DrainGC re-reads the durable index
// and resumes any reclamation the crash interrupted.
func (m *Middleware) Recover() {
	m.dropDescriptors()
	m.dropGCMirror()
}

func (m *Middleware) dropGCMirror() {
	m.dropGCSpans()
	m.dropGCIndexHeads()
}

func (m *Middleware) dropGCSpans() {
	m.gcmu.Lock()
	defer m.gcmu.Unlock()
	m.gcstates = make(map[string]*gcState)
	// In-flight windows die with the process being simulated away: any
	// intent whose operation never acknowledged is validated against its
	// still-live parent tuple at the next drain and dropped as stale.
	m.gcinflight = make(map[string]map[int]bool)
	m.gcloaded = false
}

func (m *Middleware) dropGCIndexHeads() {
	m.gcidxmu.Lock()
	defer m.gcidxmu.Unlock()
	m.gcidxheads = make(map[string]int)
}

// now returns the current tuple timestamp in nanoseconds.
func (m *Middleware) now() int64 { return m.clock().UnixNano() }

// subtreeFanout is the worker bound of the pipelined subtree engine;
// profiles that leave CostProfile.SubtreeFanout unset keep maintenance
// walks sequential (and their charges identical to the unpipelined
// code).
func (m *Middleware) subtreeFanout() int {
	if m.profile.SubtreeFanout > 1 {
		return m.profile.SubtreeFanout
	}
	return 1
}

// chargeRingConsult prices one NameRing consultation served from the File
// Descriptor Cache. The cache keeps merge state in memory, but a consult
// still costs one object GET in the deployed system (the paper's measured
// O(d) file access, §5.3), so the virtual clock is charged either way.
func (m *Middleware) chargeRingConsult(ctx context.Context) {
	vclock.Charge(ctx, m.profile.Get)
}

// CreateAccount provisions a user: a root namespace, its empty NameRing
// object, and the account root record pointing at the namespace.
func (m *Middleware) CreateAccount(ctx context.Context, account string) error {
	if !core.ValidAccount(account) {
		return fmt.Errorf("h2fs: invalid account %q: %w", account, fsapi.ErrInvalidPath)
	}
	if _, err := m.store.Head(ctx, core.RootKey(account)); err == nil {
		return fmt.Errorf("h2fs: account %q: %w", account, fsapi.ErrExists)
	}
	ns := m.gen.Next()
	if err := m.store.Put(ctx, core.RingKey(account, ns), core.EncodeNameRing(core.NewNameRing()), nil); err != nil {
		return fmt.Errorf("h2fs: create root ring: %w", err)
	}
	if err := m.store.Put(ctx, core.RootKey(account), []byte(ns), map[string]string{"h2type": "root"}); err != nil {
		return fmt.Errorf("h2fs: create root record: %w", err)
	}
	return nil
}

// DeleteAccount removes a user's filesystem. Without the GC queue the
// walk is synchronous: every object under the root namespace, then the
// root record. With the queue a durable intent is recorded first and the
// root record delete is the acknowledgment point — the subtree is then
// reclaimed by the maintenance drain (or eagerly, bracketed by the
// intent, when EagerGC is also set), so a crash anywhere resumes instead
// of leaking.
func (m *Middleware) DeleteAccount(ctx context.Context, account string) error {
	ns, err := m.rootNS(ctx, account)
	if err != nil {
		return err
	}
	if !m.gcq {
		if err := m.gcNamespace(ctx, account, ns, ""); err != nil {
			return err
		}
		m.dropRoot(account)
		if err := m.store.Delete(ctx, core.RootKey(account)); err != nil {
			return fmt.Errorf("h2fs: delete root record: %w", err)
		}
		return nil
	}
	// Intent before acknowledgment: enqueue survives caller cancellation
	// (the drain drops it as stale if the root delete below never lands).
	//h2vet:durable GC intent enqueue: must land regardless of caller cancellation
	qctx := context.WithoutCancel(ctx)
	seq, err := m.enqueueGC(qctx, account, ns, "", "", true)
	if err != nil {
		return err
	}
	// The intent stays in its in-flight window — invisible to drains, which
	// would otherwise misread the still-present root record as proof the
	// deletion never happened — until this operation returns.
	defer m.gcSettle(account, seq)
	m.dropRoot(account)
	if err := m.store.Delete(ctx, core.RootKey(account)); err != nil {
		return fmt.Errorf("h2fs: delete root record: %w", err)
	}
	if m.eagerGC {
		gcCtx := vclock.With(qctx, nil) // do not bill GC to the caller
		if err := m.gcNamespace(gcCtx, account, ns, ""); err != nil {
			return err // intent stays queued; the drain finishes the walk
		}
		m.dequeueGC(gcCtx, account, seq)
	}
	return nil
}

// AccountExists reports whether the account has been created.
func (m *Middleware) AccountExists(ctx context.Context, account string) bool {
	_, err := m.store.Head(ctx, core.RootKey(account))
	return err == nil
}

// rootNS resolves (and caches) the account's root namespace UUID.
func (m *Middleware) rootNS(ctx context.Context, account string) (string, error) {
	if ns, ok := m.cachedRoot(account); ok {
		return ns, nil
	}
	data, _, err := m.store.Get(ctx, core.RootKey(account))
	if err != nil {
		return "", fmt.Errorf("h2fs: account %q: %w", account, fsapi.ErrNotFound)
	}
	ns := string(data)
	m.setRoot(account, ns)
	return ns, nil
}

// cachedRoot, setRoot, and dropRoot are the defer-scoped critical
// sections for the root-namespace cache.
func (m *Middleware) cachedRoot(account string) (string, bool) {
	m.rootsMu.Lock()
	defer m.rootsMu.Unlock()
	ns, ok := m.roots[account]
	return ns, ok
}

func (m *Middleware) setRoot(account, ns string) {
	m.rootsMu.Lock()
	defer m.rootsMu.Unlock()
	m.roots[account] = ns
}

func (m *Middleware) dropRoot(account string) {
	m.rootsMu.Lock()
	defer m.rootsMu.Unlock()
	delete(m.roots, account)
}

// FS returns the account-scoped filesystem view.
func (m *Middleware) FS(account string) *AccountFS {
	return &AccountFS{mw: m, account: account}
}

// Usage summarizes one account's filesystem footprint.
type Usage struct {
	Dirs  int   `json:"dirs"`
	Files int   `json:"files"`
	Bytes int64 `json:"bytes"`
}

// Usage walks the account's tree and reports directory/file counts and
// total content bytes — the accounting behind per-user quota reports.
func (m *Middleware) Usage(ctx context.Context, account string) (Usage, error) {
	var u Usage
	err := fsapi.Walk(ctx, m.FS(account), "/", func(_ string, info fsapi.EntryInfo) error {
		if info.IsDir {
			u.Dirs++
		} else {
			u.Files++
			u.Bytes += info.Size
		}
		return nil
	})
	if err != nil {
		return Usage{}, err
	}
	return u, nil
}
