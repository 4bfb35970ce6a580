// Package cluster assembles storage nodes, a consistent-hashing ring and a
// service-time cost profile into an in-process object storage cloud.
//
// It stands in for the paper's rack-scale OpenStack Swift deployment (§5.1:
// nine servers, three replicas per object). Requests execute the real
// replication and placement logic against in-memory nodes while charging
// calibrated per-primitive service times to the vclock tracker carried in
// the request context, so evaluation code observes the same operation-time
// behaviour the paper measures, without the hardware.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/pipeline"
	"github.com/h2cloud/h2cloud/internal/ring"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// CostProfile holds the simulated service time of each storage primitive.
// The zero value charges nothing, which is what wall-clock benchmarks use.
type CostProfile struct {
	Get    time.Duration // base service time of an object GET
	Put    time.Duration // base service time of an object PUT
	Delete time.Duration // base service time of an object DELETE
	Head   time.Duration // base service time of an object HEAD
	Copy   time.Duration // base service time of a server-side COPY
	PerKB  time.Duration // added per KiB of payload transferred

	// DBProbe, DBScan and DBWrite price the per-account file-path database
	// OpenStack Swift keeps to boost LIST and COPY (§2): one binary-search
	// probe, one record visited during a scan, one record insert/delete.
	DBProbe time.Duration
	DBScan  time.Duration
	DBWrite time.Duration

	// IndexRead, IndexCommit and IndexRecord price the separate index
	// cloud kept by two-cloud baselines (Dynamic Partition / Dropbox,
	// Single Index Server): one index RPC read, one durably committed
	// index mutation, and one metadata record materialized in a listing.
	IndexRead   time.Duration
	IndexCommit time.Duration
	IndexRecord time.Duration

	// Fanout is the number of concurrent outbound requests a middleware
	// issues when an operation touches many objects. It is also the width
	// of the overlapped window a batched primitive (objstore.Batcher) is
	// charged as.
	Fanout int

	// DirShardThreshold enables sharded directory rings: once a
	// directory's live-child count exceeds the threshold, its NameRing is
	// split into hash-partitioned sub-ring extents behind an H2DRX
	// manifest, dropping per-patch write amplification from O(m) to
	// O(m/shards). Zero (the default) disables sharding entirely, keeping
	// every ring monolithic and the paper's Table 1 figures byte-identical.
	DirShardThreshold int
}

// SwiftProfile returns service times calibrated against the paper's
// absolute numbers (§5.3: H2 LIST of 1000 ≈ 0.35 s, COPY of 1000 ≈ 10 s,
// MKDIR ≈ 150–200 ms, H2 file access ≈ 15 ms per directory level, Swift
// full-path access ≈ 10 ms).
func SwiftProfile() CostProfile {
	return CostProfile{
		Get:         10 * time.Millisecond,
		Put:         25 * time.Millisecond,
		Delete:      10 * time.Millisecond,
		Head:        5 * time.Millisecond,
		Copy:        10 * time.Millisecond,
		PerKB:       2 * time.Microsecond,
		DBProbe:     250 * time.Microsecond,
		DBScan:      50 * time.Microsecond,
		DBWrite:     1200 * time.Microsecond,
		IndexRead:   90 * time.Millisecond,
		IndexCommit: 150 * time.Millisecond,
		IndexRecord: 250 * time.Microsecond,
		Fanout:      16,
	}
}

// ZeroProfile returns a profile that charges no virtual time; wall-clock
// benchmarks use it so testing.B measures only real data-structure work.
func ZeroProfile() CostProfile { return CostProfile{Fanout: 48} }

// Stats counts primitive operations and current storage usage.
type Stats struct {
	Gets    int64
	Puts    int64
	Deletes int64
	Heads   int64
	Copies  int64
	// Objects and Bytes are the logical (deduplicated across replicas)
	// object count and size.
	Objects int64
	Bytes   int64
	// DegradedGets counts reads served only after at least one replica
	// failed or missed — the availability-over-consistency fallback in
	// action. ReadRepairs counts replica copies written back by those
	// degraded reads.
	DegradedGets int64
	ReadRepairs  int64
}

// Cluster is a replicated object storage cloud: the paper's "single object
// storage cloud" hosting files, directories and NameRings alike.
type Cluster struct {
	ring    *ring.Ring
	profile CostProfile
	clock   func() time.Time

	// nodes is indexed by device ID, filled once in New and never written
	// after, so placement reads it with no lock.
	nodes []objstore.NodeStore

	gets, puts, deletes, heads, copies atomic.Int64
	objects, bytes                     atomic.Int64
	degradedGets, readRepairs          atomic.Int64

	// diverted is set, for good, before the first write lands on a node
	// that is not a primary of its name. Until then no handoff holds
	// anything, and the write-side sweeps (sweep) leave them out.
	diverted atomic.Bool

	// parts holds one lock per placement partition. Every write of an
	// object — commit, deleteCore — holds its partition's, so a
	// conditional put's check and its write are one step against them all.
	parts [1 << partPower]sync.Mutex
}

// Config describes a cluster to build.
type Config struct {
	Nodes    int // number of storage nodes (devices)
	Replicas int // replicas kept per object (paper uses 3)
	Profile  CostProfile
	Clock    func() time.Time // defaults to time.Now
	// DataDir, when set, makes every storage node persistent: node i
	// stores its objects under DataDir/node-i and survives restarts.
	// Empty means in-memory nodes.
	DataDir string
}

// The placement ring's fixed shape: node i sits in failure zone
// i % zones, and the ring has 2^partPower partitions. Persistent data
// directories were placed with this shape, so it cannot change
// (TestPlacementGolden pins it).
const (
	zones     = 4
	partPower = 10
)

// New builds a cluster. Defaults mirror the paper's deployment: 8 storage
// nodes in 4 zones, 3 replicas, 2^10 partitions.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 8
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	devs := make([]ring.Device, cfg.Nodes)
	nodes := make([]objstore.NodeStore, cfg.Nodes)
	for i := range devs {
		devs[i] = ring.Device{ID: i, Zone: i % zones, Weight: 1}
		if cfg.DataDir != "" {
			dn, err := objstore.OpenDiskNode(i, filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", i)))
			if err != nil {
				return nil, fmt.Errorf("cluster: %w", err)
			}
			nodes[i] = dn
		} else {
			nodes[i] = objstore.NewNode(i)
		}
	}
	rg, err := ring.New(partPower, cfg.Replicas, devs)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{ring: rg, profile: cfg.Profile, clock: cfg.Clock, nodes: nodes}
	if cfg.DataDir != "" {
		// A reopened node may keep a copy diverted in an earlier run.
		c.diverted.Store(true)
		c.recountUsage()
	}
	return c, nil
}

// recountUsage rebuilds the logical object/byte gauges from node state —
// needed when persistent nodes reopen with existing objects.
func (c *Cluster) recountUsage() {
	seen := make(map[string]bool)
	var objects, bytes int64
	for _, n := range c.nodes {
		for _, name := range n.Names() {
			if seen[name] {
				continue
			}
			seen[name] = true
			if info, err := n.Head(name); err == nil {
				objects++
				bytes += info.Size
			}
		}
	}
	c.objects.Store(objects)
	c.bytes.Store(bytes)
}

// NewSwiftLike builds the default paper-calibrated cluster.
func NewSwiftLike() *Cluster {
	c, err := New(Config{Profile: SwiftProfile()})
	if err != nil {
		panic(err) // unreachable with default config
	}
	return c
}

// Profile returns the cluster's cost profile.
func (c *Cluster) Profile() CostProfile { return c.profile }

// Ring exposes the cluster's consistent-hashing ring.
func (c *Cluster) Ring() *ring.Ring { return c.ring }

// Node returns the storage node with the given device ID, or nil. A
// write straight to a node is outside the cluster's bookkeeping: the
// gauges do not see it, and a delete looks for it on the primaries only
// until the cluster itself has diverted a write.
func (c *Cluster) Node(id int) objstore.NodeStore {
	if id < 0 || id >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

// Names returns the name of every object any device holds, replicas
// deduplicated, sorted: the key universe an offline scrub cross-checks.
func (c *Cluster) Names() []string {
	seen := make(map[string]bool)
	var names []string
	for _, n := range c.allNodes() {
		for _, name := range n.Names() {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// SetNodeDown marks a node unavailable (failure injection).
func (c *Cluster) SetNodeDown(id int, down bool) {
	if n := c.Node(id); n != nil {
		n.SetDown(down)
	}
}

// fanoutBuf is the stack-backed scratch size the per-op hot paths use for
// replica/handoff node sequences; clusters larger than this still work,
// the append just spills to the heap.
const fanoutBuf = 16

// replicaNodes returns the primary replica nodes for an object.
func (c *Cluster) replicaNodes(name string) []objstore.NodeStore {
	nodes, _ := c.place(make([]objstore.NodeStore, 0, c.ring.ReplicaCount()), name)
	return nodes
}

// place hashes name once and appends its primary replica nodes to dst in
// ring order; hot paths pass a stack-backed buffer so the per-op fan-out
// allocates nothing. It returns the extended slice and the partition,
// which appendHandoffs takes so that falling through costs no second hash.
func (c *Cluster) place(dst []objstore.NodeStore, name string) ([]objstore.NodeStore, uint32) {
	part := c.ring.Partition(name)
	var devBuf [fanoutBuf]int
	for _, id := range c.ring.PartitionDevicesAppend(part, devBuf[:0]) {
		dst = append(dst, c.nodes[id])
	}
	return dst, part
}

// appendHandoffs appends the nodes that are not primaries of part, rotated
// by the partition — Swift's handoff nodes, which absorb writes whose
// primary replicas are unreachable so availability survives multi-node
// failures — and returns the extended slice.
func (c *Cluster) appendHandoffs(dst []objstore.NodeStore, part uint32) []objstore.NodeStore {
	var devBuf [fanoutBuf]int
	devs := c.ring.PartitionDevicesAppend(part, devBuf[:0])
	rot := int(part) % len(c.nodes)
	for i := range c.nodes {
		if id := (rot + i) % len(c.nodes); !slices.Contains(devs, id) {
			dst = append(dst, c.nodes[id])
		}
	}
	return dst
}

// fallThrough is a read's one lazy step: when seq[i], the last primary, has
// just missed or failed and some write has been diverted, it appends the
// handoffs behind it; otherwise it returns seq as it is. A read served by a
// primary never computes them, and until a diversion no handoff holds a
// copy, so a miss tallies only the key's primaries (missErr).
func (c *Cluster) fallThrough(seq []objstore.NodeStore, i int, part uint32) []objstore.NodeStore {
	if i == c.ring.ReplicaCount()-1 && c.diverted.Load() {
		return c.appendHandoffs(seq, part)
	}
	return seq
}

// sweep is what a write-side pass over part visits — commit's existence
// probe and deleteCore's removals: the primaries, and the handoffs behind
// them only once some write has been diverted, since before that no
// handoff can hold a copy.
func (c *Cluster) sweep(primaries []objstore.NodeStore, part uint32) []objstore.NodeStore {
	if c.diverted.Load() {
		return c.appendHandoffs(primaries, part)
	}
	return primaries
}

func transferCost(per time.Duration, size int) time.Duration {
	if per <= 0 || size <= 0 {
		return 0
	}
	kib := (size + 1023) / 1024
	return time.Duration(kib) * per
}

// Put stores data on every reachable primary replica; writes whose
// primary is down are diverted to handoff nodes (one per failed primary).
// It succeeds when a majority of the replica count landed somewhere,
// returning ErrNoQuorum otherwise. Replica writes happen server-side in
// parallel, so one base service time is charged.
func (c *Cluster) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	cost, _, err := c.putCore(name, data, meta, "")
	vclock.Charge(ctx, cost)
	return err
}

// putCore executes one replicated PUT without charging, returning the
// simulated service time it costs — singular callers charge it directly,
// batched callers fold it into one overlapped window — and the ETag of the
// stored version, "" when the put failed. The payload is sealed (copied,
// hashed) once here, and every replica holds that one value. ifMatch is
// the put's precondition (objstore.Holds); a put that fails it costs and
// counts what any put does.
func (c *Cluster) putCore(name string, data []byte, meta map[string]string, ifMatch string) (time.Duration, string, error) {
	cost := c.profile.Put + transferCost(c.profile.PerKB, len(data))
	c.puts.Add(1)
	s := objstore.Seal(name, data, meta, c.clock())
	if err := c.commit("put", s, ifMatch); err != nil {
		return cost, "", err
	}
	return cost, s.Info().ETag, nil
}

// commit is the one replicated write, PUT's and COPY's alike: s goes to
// every reachable primary of its name, a write whose primary is down is
// diverted to a handoff node (one per failed primary), and it succeeds —
// moving the logical gauges by the difference to whatever version the
// sweep found first — when a majority of the replica count landed
// somewhere. op words the ErrNoQuorum it returns otherwise. The sweep
// visits the nodes in a Head's read order, so the first version it finds
// is the one a Head would read: ifMatch is checked against it, under the
// partition's lock, and a put that fails the check writes no replica. A
// sweep that found nothing while a write quorum of nodes failed cannot
// tell a miss, and returns the node error as a Head would.
func (c *Cluster) commit(op string, s *objstore.Sealed, ifMatch string) error {
	info := s.Info()
	var seqBuf [fanoutBuf]objstore.NodeStore
	nodes, part := c.place(seqBuf[:0], info.Name)
	mu := &c.parts[part]
	mu.Lock()
	defer mu.Unlock()
	existed := false
	var prev objstore.ObjectInfo
	var miss readMiss
	for _, n := range c.sweep(nodes, part) {
		old, err := n.Head(info.Name)
		if err == nil {
			existed, prev = true, old
			break
		}
		miss.note(err)
	}
	if !objstore.Holds(ifMatch, prev, existed) {
		if err := c.missErr(op, info.Name, miss); !existed && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
		return &keyError{op: op, name: info.Name, err: objstore.ErrPrecondition}
	}
	ok := 0
	failed := 0
	for _, n := range nodes {
		if err := n.PutSealed(s); err == nil {
			ok++
		} else {
			failed++
		}
	}
	// Divert failed replica writes to handoff nodes, marking the cluster
	// diverted before the first copy lands.
	if failed > 0 {
		c.diverted.Store(true)
		for _, h := range c.appendHandoffs(nodes, part)[len(nodes):] {
			if failed == 0 {
				break
			}
			if err := h.PutSealed(s); err == nil {
				ok++
				failed--
			}
		}
	}
	if ok <= len(nodes)/2 {
		return fmt.Errorf("cluster: %s %q: %w", op, info.Name, objstore.ErrNoQuorum)
	}
	if !existed {
		c.objects.Add(1)
	}
	c.bytes.Add(info.Size - prev.Size)
	return nil
}

// keyError is a read, probe or delete that found no replica holding the
// key: the operation, the key, and the sentinel or node error it unwraps
// to (missErr). Every chain-end probe of a cold load or a GC window ends in
// one and tests it with errors.Is, so the text — byte for byte what
// fmt.Errorf("cluster: <op> %q: %w", name, err) rendered — is only built
// when somebody asks for it.
type keyError struct {
	op, name string
	err      error
}

func (e *keyError) Error() string {
	return "cluster: " + e.op + " " + strconv.Quote(e.name) + ": " + e.err.Error()
}

func (e *keyError) Unwrap() error { return e.err }

// readMiss tallies the nodes a read tried that failed rather than
// missed, with the last such failure.
type readMiss struct {
	failed int
	err    error
}

func (r *readMiss) note(err error) {
	if !errors.Is(err, objstore.ErrNotFound) {
		r.failed, r.err = r.failed+1, err
	}
}

// missErr is the error of a read no replica served. It unwraps to
// ErrNotFound while fewer nodes failed than a write quorum: an
// acknowledged write sits on at least that many, so one of its holders
// answered, and a chain-end probe with one node down still ends cleanly.
// Otherwise the object may sit on the failed nodes, and the read reports
// the last node's error. Before a diversion the read tried the primaries
// only, so a down node that is not one of them does not count.
func (c *Cluster) missErr(op, name string, r readMiss) error {
	err := error(objstore.ErrNotFound)
	if r.failed >= c.ring.ReplicaCount()/2+1 {
		err = r.err
	}
	return &keyError{op: op, name: name, err: err}
}

// Get reads from the first reachable replica holding the object, falling
// through primaries and then handoffs. A read that succeeds only after an
// earlier replica failed or missed is degraded: it is counted, and the
// winning copy is written back to reachable primaries that miss it or
// hold a stale version (read-repair), so a single fallback read heals the
// divergence instead of leaving it for the next anti-entropy pass.
func (c *Cluster) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	data, info, cost, err := c.getCore(name)
	vclock.Charge(ctx, cost)
	return data, info, err
}

// getCore executes one replicated GET without charging, returning the
// simulated service time it costs.
func (c *Cluster) getCore(name string) ([]byte, objstore.ObjectInfo, time.Duration, error) {
	c.gets.Add(1)
	var miss readMiss
	var seqBuf [fanoutBuf]objstore.NodeStore
	seq, part := c.place(seqBuf[:0], name)
	for i := 0; i < len(seq); i++ {
		data, info, err := seq[i].Get(name)
		if err == nil {
			if i > 0 {
				c.degradedGets.Add(1)
				if s, err := seq[i].Load(name); err == nil {
					c.readRepair(s)
				}
			}
			return data, info, c.profile.Get + transferCost(c.profile.PerKB, len(data)), nil
		}
		miss.note(err)
		seq = c.fallThrough(seq, i, part)
	}
	return nil, objstore.ObjectInfo{}, c.profile.Get, c.missErr("get", name, miss)
}

// readRepair pushes the version a degraded read was served from to every
// reachable primary replica that misses it or holds an older one. Repairs
// are server-side background work, so no virtual time is charged to the
// reading request.
func (c *Cluster) readRepair(s *objstore.Sealed) {
	info := s.Info()
	for _, r := range c.replicaNodes(info.Name) {
		if r.Down() {
			continue
		}
		if cur, err := r.Head(info.Name); err == nil && !cur.LastModified.Before(info.LastModified) {
			continue
		}
		if err := r.PutSealed(s); err == nil {
			c.readRepairs.Add(1)
		}
	}
}

// GetRange reads a byte range from the first reachable replica holding
// the object: offset past the end yields empty, negative length means
// "to the end". Only the returned bytes are charged as transfer — the
// primitive behind ranged READs of large files.
func (c *Cluster) GetRange(ctx context.Context, name string, offset, length int64) ([]byte, objstore.ObjectInfo, error) {
	if offset < 0 {
		return nil, objstore.ObjectInfo{}, fmt.Errorf("cluster: negative range offset %d", offset)
	}
	c.gets.Add(1)
	var miss readMiss
	var seqBuf [fanoutBuf]objstore.NodeStore
	seq, part := c.place(seqBuf[:0], name)
	for i := 0; i < len(seq); i++ {
		s, err := seq[i].Load(name)
		if err != nil {
			miss.note(err)
			seq = c.fallThrough(seq, i, part)
			continue
		}
		if i > 0 {
			c.degradedGets.Add(1)
			c.readRepair(s)
		}
		data := s.Bytes()
		if offset > int64(len(data)) {
			offset = int64(len(data))
		}
		end := int64(len(data))
		if length >= 0 && length < end-offset {
			end = offset + length
		}
		part := make([]byte, end-offset)
		copy(part, data[offset:end])
		vclock.Charge(ctx, c.profile.Get+transferCost(c.profile.PerKB, len(part)))
		return part, s.Info(), nil
	}
	vclock.Charge(ctx, c.profile.Get)
	return nil, objstore.ObjectInfo{}, c.missErr("get range", name, miss)
}

// Head reads metadata from the first reachable replica.
func (c *Cluster) Head(ctx context.Context, name string) (objstore.ObjectInfo, error) {
	info, cost, err := c.headCore(name)
	vclock.Charge(ctx, cost)
	return info, err
}

// headCore executes one replicated HEAD without charging, returning the
// simulated service time it costs.
func (c *Cluster) headCore(name string) (objstore.ObjectInfo, time.Duration, error) {
	c.heads.Add(1)
	var miss readMiss
	var seqBuf [fanoutBuf]objstore.NodeStore
	seq, part := c.place(seqBuf[:0], name)
	for i := 0; i < len(seq); i++ {
		info, err := seq[i].Head(name)
		if err == nil {
			return info, c.profile.Head, nil
		}
		miss.note(err)
		seq = c.fallThrough(seq, i, part)
	}
	return objstore.ObjectInfo{}, c.profile.Head, c.missErr("head", name, miss)
}

// Delete removes the object from all reachable replicas and from any
// handoff node holding a diverted copy. It returns ErrNotFound only if no
// node held the object.
func (c *Cluster) Delete(ctx context.Context, name string) error {
	cost, err := c.deleteCore(name)
	vclock.Charge(ctx, cost)
	return err
}

// deleteCore executes one replicated DELETE without charging, returning
// the simulated service time it costs. It deletes on every node of the
// sweep, but asks for a header only until a replica has been removed: the
// size leaving the gauge is the first holder's in read order, the copy
// commit's probe read, so a stale copy a handoff still keeps does not
// decide it.
func (c *Cluster) deleteCore(name string) (time.Duration, error) {
	c.deletes.Add(1)
	removed := false
	var size int64
	var seqBuf [fanoutBuf]objstore.NodeStore
	seq, part := c.place(seqBuf[:0], name)
	mu := &c.parts[part]
	mu.Lock()
	defer mu.Unlock()
	for _, n := range c.sweep(seq, part) {
		if !removed {
			if info, err := n.Head(name); err == nil {
				size = info.Size
			}
		}
		if err := n.Delete(name); err == nil {
			removed = true
		}
	}
	if !removed {
		return c.profile.Delete, &keyError{op: "delete", name: name, err: objstore.ErrNotFound}
	}
	c.objects.Add(-1)
	c.bytes.Add(-size)
	return c.profile.Delete, nil
}

// Copy duplicates src to dst server-side: no client transfer, one copy
// service charge plus destination placement. The destination is the
// source's stored version under a new name and timestamp — same bytes,
// same ETag, nothing copied or hashed — committed by PUT's rules.
func (c *Cluster) Copy(ctx context.Context, src, dst string) error {
	vclock.Charge(ctx, c.profile.Copy)
	c.copies.Add(1)
	var s *objstore.Sealed
	err := objstore.ErrNotFound
	var seqBuf [fanoutBuf]objstore.NodeStore
	seq, part := c.place(seqBuf[:0], src)
	for i := 0; i < len(seq); i++ {
		if s, err = seq[i].Load(src); err == nil {
			break
		}
		seq = c.fallThrough(seq, i, part)
	}
	if err != nil {
		return &keyError{op: "copy", name: src, err: err}
	}
	return c.commit("copy to", s.As(dst, c.clock()), "")
}

// allNodes returns a copy of the node table, in ascending id order, so
// Repair's pass order (and therefore which replica wins a LastModified
// tie) is deterministic across runs.
func (c *Cluster) allNodes() []objstore.NodeStore {
	return slices.Clone(c.nodes)
}

// Repair runs one anti-entropy pass: every object present on at least one
// replica of its partition is pushed to replicas that miss it or hold a
// stale copy (older LastModified). It returns the number of replica copies
// written and is the eventual-consistency mechanism behind the cloud's
// availability-over-consistency stance (§3.3.1).
//
// Probing is Head-first: every reachable node answers with metadata only,
// and full object bytes are fetched exactly once — from the freshest
// holder — and only when some replica is actually stale or missing, so a
// pass over a healthy cluster moves no content at all. Each object is
// healed as one task on the pipelined subtree engine, at most workers at
// a time (below 2 the pass is sequential), with the simulated cost of
// the pass charged to the tracker carried by ctx — callers that treat
// repair as free background work pass an uncharged context.
func (c *Cluster) Repair(ctx context.Context, workers int) int {
	nodes := c.allNodes()
	seen := make(map[string]bool)
	var names []string
	for _, n := range nodes {
		if n.Down() {
			continue
		}
		for _, name := range n.Names() {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	var repaired atomic.Int64
	eng := pipeline.New(ctx, workers)
	for _, name := range names {
		name := name
		eng.Go(name, func(ctx context.Context) error {
			repaired.Add(int64(c.repairName(ctx, name, nodes)))
			return nil
		})
	}
	_ = eng.Wait() // repair tasks report no errors; Wait charges the window
	return int(repaired.Load())
}

// repairName heals one object: probe every reachable node with HEAD,
// push the freshest version to stale or missing primaries (fetching the
// bytes once), then reclaim redundant handoff copies once every primary
// is fresh. It returns the number of replica copies written or handed
// back.
func (c *Cluster) repairName(ctx context.Context, name string, nodes []objstore.NodeStore) int {
	// Find the freshest copy anywhere — a handoff node may hold the
	// newest version after a diverted write.
	infos := make(map[int]objstore.ObjectInfo, len(nodes))
	var bestInfo objstore.ObjectInfo
	var bestNode objstore.NodeStore
	for _, n := range nodes {
		if n.Down() {
			continue
		}
		vclock.Charge(ctx, c.profile.Head)
		info, err := n.Head(name)
		if err != nil {
			continue
		}
		infos[n.ID()] = info
		if bestNode == nil || info.LastModified.After(bestInfo.LastModified) {
			bestInfo, bestNode = info, n
		}
	}
	if bestNode == nil {
		return 0
	}
	replicas := c.replicaNodes(name)
	fresh := make(map[int]bool, len(replicas))
	var stale []objstore.NodeStore
	for _, r := range replicas {
		if r.Down() {
			continue
		}
		if info, ok := infos[r.ID()]; ok && !info.LastModified.Before(bestInfo.LastModified) {
			fresh[r.ID()] = true
			continue
		}
		stale = append(stale, r)
	}
	repaired := 0
	if len(stale) > 0 {
		s, err := bestNode.Load(name)
		if err != nil {
			vclock.Charge(ctx, c.profile.Get)
			return 0 // freshest holder vanished mid-pass; the next pass heals
		}
		size := len(s.Bytes())
		vclock.Charge(ctx, c.profile.Get+transferCost(c.profile.PerKB, size))
		for _, r := range stale {
			vclock.Charge(ctx, c.profile.Put+transferCost(c.profile.PerKB, size))
			if r.PutSealed(s) == nil {
				repaired++
				fresh[r.ID()] = true
			}
		}
	}
	// Hand back: once every primary holds the newest version, diverted
	// handoff copies are redundant and reclaimed.
	primary := map[int]bool{}
	for _, r := range replicas {
		primary[r.ID()] = true
		if !fresh[r.ID()] {
			return repaired
		}
	}
	for _, n := range nodes {
		if primary[n.ID()] || n.Down() {
			continue
		}
		if _, ok := infos[n.ID()]; !ok {
			continue
		}
		vclock.Charge(ctx, c.profile.Delete)
		if n.Delete(name) == nil {
			repaired++
		}
	}
	return repaired
}

// Stats returns a snapshot of primitive-operation counters and logical
// storage usage. Logical object count/bytes deduplicate replicas, matching
// how the paper reports storage overhead (Figures 14 and 15).
func (c *Cluster) Stats() Stats {
	return Stats{
		Gets:         c.gets.Load(),
		Puts:         c.puts.Load(),
		Deletes:      c.deletes.Load(),
		Heads:        c.heads.Load(),
		Copies:       c.copies.Load(),
		Objects:      c.objects.Load(),
		Bytes:        c.bytes.Load(),
		DegradedGets: c.degradedGets.Load(),
		ReadRepairs:  c.readRepairs.Load(),
	}
}

var _ objstore.Store = (*Cluster)(nil)
