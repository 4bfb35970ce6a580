package h2fs

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/pipeline"
)

// Pipelined subtree walking. COPY of a directory tree and GC of a
// namespace share the same access pattern: expand a NameRing, touch each
// child object, recurse into child namespaces — a BFS whose steps are
// all independent object primitives. The sequential recursion issued
// them one at a time; here every expansion and every child-object step
// is a task on one bounded-fanout pipeline.Engine, so ring expansion at
// one level overlaps child object I/O at another, and the request is
// charged the schedule's makespan instead of the sum.
//
// Ordering is preserved where it matters, not globally: a pipeline.Group
// per namespace runs the "after my whole subtree" step (write the
// destination ring; delete the source ring) as a finalizer once every
// task under it has succeeded. Determinism: task labels are derived from
// tree paths, child namespaces are minted with uuid.Derive (a pure
// function of parent namespace and name), and all tuple timestamps in a
// copy share the operation's start time — so a pipelined walk produces
// byte-identical store state on every run, whatever the schedule.

// ringBuilder accumulates the destination NameRing tuples that
// concurrent copy tasks contribute.
type ringBuilder struct {
	mu   sync.Mutex
	ring *core.NameRing
}

func newRingBuilder() *ringBuilder { return &ringBuilder{ring: core.NewNameRing()} }

func (b *ringBuilder) set(t core.Tuple) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ring.Set(t)
}

func (b *ringBuilder) encode() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return core.EncodeNameRing(b.ring)
}

// copyTree deep-copies the contents of namespace srcNS into the freshly
// created namespace dstNS. Destination NameRings are written directly
// (no patches): the namespaces are new, so no other node can be updating
// them. Every destination ring is written by its group's finalizer, only
// after all child objects under it landed — the same blocking rule the
// sequential walk enforced by ordering.
func (m *Middleware) copyTree(ctx context.Context, account, srcNS, dstNS string) error {
	eng := pipeline.New(ctx, m.subtreeFanout())
	m.copySubtree(eng, nil, "", account, srcNS, dstNS, m.now())
	return eng.Wait()
}

// copySubtree schedules the copy of one namespace's children onto the
// engine. The group's finalizer writes the destination ring; a failure
// anywhere below skips it, so a partial copy never becomes listable.
func (m *Middleware) copySubtree(eng *pipeline.Engine, parent *pipeline.Group, lbl, account, srcNS, dstNS string, now int64) {
	rb := newRingBuilder()
	g := eng.NewGroup(parent, lbl, func(ctx context.Context) error {
		return m.store.Put(ctx, core.RingKey(account, dstNS), rb.encode(), nil)
	})
	g.GoChild("", "\x00expand", func(ctx context.Context) error {
		defer g.Close()
		children, err := m.liveChildren(ctx, account, srcNS)
		if err != nil {
			return err
		}
		for _, child := range children {
			if !child.Dir {
				g.GoChild(child.Name, "", func(ctx context.Context) error {
					if err := m.copyFileObject(ctx, account, srcNS, child.Name, dstNS, child.Name, child.Chunked); err != nil {
						if errors.Is(err, objstore.ErrNotFound) {
							return nil // child vanished mid-copy; skip
						}
						return err
					}
					rb.set(core.Tuple{Name: child.Name, Time: now, Chunked: child.Chunked})
					return nil
				})
				continue
			}
			childNS := m.gen.Derive(dstNS, child.Name)
			g.GoChild(child.Name, "\x00dir", func(ctx context.Context) error {
				dirObj := core.EncodeDir(core.DirObject{NS: childNS, Name: child.Name, Created: now})
				return m.store.Put(ctx, core.ChildKey(account, dstNS, child.Name), dirObj,
					map[string]string{metaType: typeDir, "ns": childNS})
			})
			m.copySubtree(eng, g, lbl+"/"+child.Name, account, child.NS, childNS, now)
			rb.set(core.Tuple{Name: child.Name, Time: now, Dir: true, NS: childNS})
		}
		return nil
	})
}

// gcNamespace reclaims every object under a namespace: child files and
// directory objects, subtree rings (recursively), the namespace's own
// NameRing object and its patch chains. This is the "really removing"
// half of fake deletion (§3.3.2) — it never runs inside a measured
// filesystem operation. Plain child files are reclaimed with one
// MultiDelete batch per namespace and patch chains are probed in batched
// windows, so even the sequential (SubtreeFanout <= 1) walk benefits
// from overlapped-window charging. entryKey, when non-empty, is the
// directory child object that pointed at ns — the queue drain and RMDIR
// pass the tombstoned entry's key — and is deleted once the subtree is
// gone.
func (m *Middleware) gcNamespace(ctx context.Context, account, ns, entryKey string) error {
	eng := pipeline.New(ctx, m.subtreeFanout())
	m.gcSubtree(eng, nil, "", account, ns, entryKey)
	return eng.Wait()
}

// gcSubtree schedules the reclamation of one namespace. entryKey, when
// non-empty, is the directory child object that pointed at this
// namespace. The group's finalizer runs after the subtree is gone and is
// condemn-then-delete: it drops the cached descriptor first, then deletes
// the entry, the extents and the object at RingKey. dropDesc takes the
// descriptor's monitor, so a merger flush already inside flushLocked
// finishes its put before the delete, and every later pass finds the
// descriptor evicted and skips it — dropping it after the deletes let a
// MaintainOnce issued in between put the ring back. What stays open is the
// same race against another middleware's merger, which holds its own
// descriptor of the doomed ring (ROADMAP item 1, PR B's matrix).
func (m *Middleware) gcSubtree(eng *pipeline.Engine, parent *pipeline.Group, lbl, account, ns, entryKey string) {
	var extentKeys []string // filled by the expand task before the finalizer runs
	g := eng.NewGroup(parent, lbl, func(ctx context.Context) error {
		m.dropDesc(account, ns)
		if entryKey != "" {
			if err := m.store.Delete(ctx, entryKey); err != nil && !errors.Is(err, objstore.ErrNotFound) {
				return err
			}
		}
		// Sub-ring extents go before the manifest at RingKey, so a crash in
		// between leaves a referenced-but-empty layout (readers tolerate
		// it) rather than unreferenced garbage.
		for _, err := range objstore.MultiDelete(ctx, m.store, extentKeys) {
			if err != nil && !errors.Is(err, objstore.ErrNotFound) {
				return err
			}
		}
		if err := m.store.Delete(ctx, core.RingKey(account, ns)); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
		return nil
	})
	g.GoChild("", "\x00expand", func(ctx context.Context) error {
		defer g.Close()
		tuples, watermarks, lay, err := m.gcSnapshot(ctx, account, ns)
		if err != nil {
			return err
		}
		extentKeys = lay.Extents(account, ns)
		var plain []string
		for _, t := range tuples {
			switch {
			case t.Dir && t.NS != "":
				m.gcSubtree(eng, g, lbl+"/"+t.Name, account, t.NS, core.ChildKey(account, ns, t.Name))
			case t.Chunked:
				g.GoChild(t.Name, "", func(ctx context.Context) error {
					if err := m.deleteFileObject(ctx, account, ns, t.Name, true); err != nil &&
						!errors.Is(err, objstore.ErrNotFound) {
						return err
					}
					return nil
				})
			default:
				plain = append(plain, core.ChildKey(account, ns, t.Name))
			}
		}
		if len(plain) > 0 {
			g.GoChild("", "\x00files", func(ctx context.Context) error {
				for _, err := range objstore.MultiDelete(ctx, m.store, plain) {
					if err != nil && !errors.Is(err, objstore.ErrNotFound) {
						return err
					}
				}
				return nil
			})
		}
		// Collect patch chains: probe upward from each node's merge
		// watermark until the chain ends.
		for _, node := range sortedNodeIDs(watermarks) {
			node, wm := node, watermarks[node]
			g.GoChild("", "\x00patch."+strconv.Itoa(node), func(ctx context.Context) error {
				return m.collectPatchChain(ctx, account, ns, node, wm)
			})
		}
		return nil
	})
}

// gcSnapshot captures a namespace's tuples, per-node patch watermarks,
// and store layout under the descriptor lock.
func (m *Middleware) gcSnapshot(ctx context.Context, account, ns string) ([]core.Tuple, map[int]int, core.ShardManifest, error) {
	d := m.lockedDesc(account, ns)
	defer m.unlockDesc(d)
	if err := m.load(ctx, d); err != nil {
		return nil, nil, core.ShardManifest{}, err
	}
	tuples := d.local.All()
	watermarks := make(map[int]int, len(d.watermarks)+1)
	for node, seq := range d.watermarks {
		watermarks[node] = seq
	}
	if _, ok := watermarks[m.node]; !ok {
		watermarks[m.node] = 0
	}
	return tuples, watermarks, d.lay, nil
}

// patchProbeWindow is how many consecutive patch sequence numbers one
// MultiDelete probes at a time during chain collection.
const patchProbeWindow = 8

// collectPatchChain deletes one node's patch objects from seq wm+1 until
// the chain ends. Probing happens in batched windows: one MultiDelete
// covers patchProbeWindow consecutive sequence numbers, so a long chain
// costs ceil(len/window) overlapped windows instead of len sequential
// round trips, and the ErrNotFound that ends the chain rides in the last
// window instead of costing its own probe.
func (m *Middleware) collectPatchChain(ctx context.Context, account, ns string, node, wm int) error {
	var keys [patchProbeWindow]string
	for seq := wm + 1; ; seq += patchProbeWindow {
		for i := range keys {
			keys[i] = core.PatchKey(account, ns, node, seq+i)
		}
		for _, err := range objstore.MultiDelete(ctx, m.store, keys[:]) {
			if err == nil {
				continue
			}
			if errors.Is(err, objstore.ErrNotFound) {
				return nil // chain end reached inside this window
			}
			return err
		}
	}
}

// sortedNodeIDs returns the map's keys in ascending order, so task
// scheduling never depends on map iteration order.
func sortedNodeIDs(watermarks map[int]int) []int {
	ids := make([]int, 0, len(watermarks))
	for id := range watermarks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
