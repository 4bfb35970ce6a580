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
	"errors"
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
	// primitives charge themselves, and its DirShardThreshold sets the
	// ring-sharding threshold. A zero profile charges nothing.
	Profile cluster.CostProfile
	// SubtreeFanout bounds the pipelined subtree engine: how many
	// expansion and object tasks a maintenance walk (COPY of a tree, GC
	// of a namespace) keeps in flight. Zero or one keeps those walks
	// sequential — the charge degenerates to the exact per-item sum,
	// preserving the paper's Table 1 / Figure 11 cost figures — so
	// pipelining is an explicit opt-in.
	SubtreeFanout int
	// Clock supplies tuple timestamps; defaults to time.Now.
	Clock func() time.Time
	// Gossip, when set, spreads NameRing update advertisements to peer
	// middlewares after flushes.
	Gossip gossip.Broadcaster
	// EagerGC makes RMDIR reclaim the subtree's objects synchronously,
	// outside the measured operation cost. Without it, RMDIR leaves them
	// to the GC queue's drain (or, with the queue off, to nothing but an
	// orphan scrub), matching the paper's fake-deletion design. Account
	// deletion reclaims synchronously either way when the queue is off —
	// the walk runs after the root record goes, billed to the caller —
	// and with the queue on it defers to the drain unless EagerGC is set.
	EagerGC bool
	// GCQueue enables the durable async reclamation queue: RMDIR and
	// account deletion record a crash-safe GC intent (two O(1) puts)
	// before the tombstone, and the maintenance loop drains the queue
	// through the pipelined walker (DrainGC). With EagerGC also set the
	// synchronous walk dequeues the intent, so a crash mid-reclamation
	// is resumed instead of leaking the remainder.
	GCQueue bool
	// Metrics is the registry the middleware reports to: the store
	// rings' store.<op> observations, request table and retry counters
	// (retry.attempts, retry.exhausted), the descriptor-cache gauges
	// (descCache.size, descCache.evicted, descCache.settled — stubs held
	// for clean-evicted rings — and descCache.probes.skipped, the own-chain
	// probes those stubs saved), and the directory-sharding counters
	// (dirShard.splits, dirShard.merges, dirShard.extents). Nil means a
	// private registry; either way Metrics() returns it.
	Metrics *metrics.Registry
	// DescCacheLimit caps the resident File Descriptors, exactly: an
	// insert past it releases a clean descriptor the CLOCK hand finds
	// unreferenced (a clean descriptor reloads from the store
	// byte-identically, so eviction only costs the reload: one ring GET
	// plus the peer-chain probes). Descriptors with unflushed state are
	// never released, so while they fill the cache it overflows. Zero
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
	store     objstore.Store // cloud behind the retry and metrics rings
	cloud     objstore.Store // Config.Store
	node      int
	profile   cluster.CostProfile
	fanout    int // Config.SubtreeFanout
	clock     func() time.Time
	last      atomic.Int64 // the newest timestamp now has returned
	bus       gossip.Broadcaster
	eagerGC   bool
	syncProto bool
	gen       *uuid.Gen
	reg       *metrics.Registry

	descs descCache // the File Descriptor Cache (see descache.go)

	rootsMu sync.Mutex
	roots   map[string]string // account -> root namespace UUID

	gc gcQueue // the durable GC queue mirror (see gcqueue.go)
}

// New builds a middleware. If cfg.Gossip is a gossip.Registrar, the
// middleware registers itself as node cfg.Node.
func New(cfg Config) (*Middleware, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("h2fs: Config.Store is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	m := &Middleware{
		// One store path for every middleware: the retry ring innermost
		// (each attempt goes straight to the cloud, and only a transient
		// error is re-issued), op-tracing metrics outermost so its
		// observations include retry-inflated service time.
		store:     storemw.Stack(cfg.Store, storemw.Retry(cfg.Metrics), storemw.Metrics(cfg.Metrics)),
		cloud:     cfg.Store,
		node:      cfg.Node,
		profile:   cfg.Profile,
		fanout:    cfg.SubtreeFanout,
		clock:     cfg.Clock,
		bus:       cfg.Gossip,
		eagerGC:   cfg.EagerGC,
		syncProto: cfg.SyncProtocol,
		gen:       uuid.NewGen(cfg.Node, func() time.Time { return cfg.Clock() }),
		reg:       cfg.Metrics,
		roots:     make(map[string]string),
	}
	m.gc.on = cfg.GCQueue
	m.descs.limit = max(cfg.DescCacheLimit, 0)
	if reg, ok := cfg.Gossip.(gossip.Registrar); ok {
		reg.Register(cfg.Node, m.handleGossip)
	}
	return m, nil
}

// Node returns the middleware's node number.
func (m *Middleware) Node() int { return m.node }

// Store returns the underlying object storage cloud (the Outbound API
// target): Config.Store, without the rings the middleware stacks on it.
func (m *Middleware) Store() objstore.Store { return m.cloud }

// Metrics returns the middleware's registry: Config.Metrics, or the
// private one New made when that was nil.
func (m *Middleware) Metrics() *metrics.Registry { return m.reg }

// Recover simulates a middleware process restart: every cached File
// Descriptor and root record is dropped, so subsequent operations reload
// NameRings from the store and replay any unmerged patch chains — the
// crash-recovery path the chaos experiments exercise. The GC-queue span
// mirror is dropped too, so the next DrainGC re-reads the durable index
// and resumes any reclamation the crash interrupted.
func (m *Middleware) Recover() {
	m.dropDescriptors()
	m.gc.reset()
}

// now returns the current tuple timestamp in nanoseconds: the clock's
// reading, or one past the newest timestamp returned if the clock stepped
// back, so a tombstone never predates the entry it deletes.
func (m *Middleware) now() int64 {
	t := m.clock().UnixNano()
	for {
		last := m.last.Load()
		if next := max(t, last+1); m.last.CompareAndSwap(last, next) {
			return next
		}
	}
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
	switch exists, err := m.AccountExists(ctx, account); {
	case err != nil:
		return err
	case exists:
		return fmt.Errorf("h2fs: account %q: %w", account, fsapi.ErrExists)
	}
	ns := m.gen.Next()
	if err := m.store.Put(ctx, core.RingKey(account, ns), core.EncodeNameRing(core.NewNameRing()), nil); err != nil {
		return fmt.Errorf("h2fs: create root ring: %w", err)
	}
	if err := m.store.Put(ctx, core.RootKey(account), []byte(ns), map[string]string{core.MetaType: core.TypeRoot}); err != nil {
		return fmt.Errorf("h2fs: create root record: %w", err)
	}
	return nil
}

// DeleteAccount removes a user's filesystem: the root record delete is
// the commit, and the reclamation of the tree follows Rmdir's steps
// (gcqueue.go). Without the queue the walk runs right after the commit,
// billed to the caller; a delete it fails leaves orphans for a scrub,
// counted in reclaim.errors, never a live account with dangling names.
func (m *Middleware) DeleteAccount(ctx context.Context, account string) error {
	ns, err := m.rootNS(ctx, account)
	if err != nil {
		return err
	}
	if !m.gc.on {
		if err := m.unlinkRoot(ctx, account); err != nil {
			return err
		}
		return m.reclaimed(m.gcNamespace(ctx, account, ns, ""))
	}
	e := core.GCEntry{Account: account, NS: ns, Root: true}
	seq, err := m.enqueueGC(ctx, e)
	if err != nil {
		return err
	}
	// Until this operation returns the intent sits in its in-flight
	// window, invisible to drains, which would otherwise misread the
	// still-present root record as proof the deletion never happened.
	defer m.gcSettle(account, seq)
	if err := m.unlinkRoot(ctx, account); err != nil {
		return err
	}
	return m.reclaimNow(ctx, e, seq)
}

// unlinkRoot deletes account's root record, forgetting the cached one.
func (m *Middleware) unlinkRoot(ctx context.Context, account string) error {
	m.dropRoot(account)
	if err := m.store.Delete(ctx, core.RootKey(account)); err != nil {
		return fmt.Errorf("h2fs: delete root record: %w", err)
	}
	return nil
}

// AccountExists reports whether the account has been created. Only a
// missing root record means it has not: any other failure to read the
// record is returned, so a dead cloud is unavailable, not absent.
func (m *Middleware) AccountExists(ctx context.Context, account string) (bool, error) {
	_, err := m.store.Head(ctx, core.RootKey(account))
	if err != nil && !errors.Is(err, objstore.ErrNotFound) {
		return false, fmt.Errorf("h2fs: account %q: %w", account, err)
	}
	return err == nil, nil
}

// rootNS resolves (and caches) the account's root namespace UUID.
func (m *Middleware) rootNS(ctx context.Context, account string) (string, error) {
	if ns, ok := m.cachedRoot(account); ok {
		return ns, nil
	}
	data, _, err := m.store.Get(ctx, core.RootKey(account))
	if errors.Is(err, objstore.ErrNotFound) {
		err = fsapi.ErrNotFound // as in AccountExists, only a missing record is absence
	}
	if err != nil {
		return "", fmt.Errorf("h2fs: account %q: %w", account, err)
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
