package h2fs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// Orphan scrubber. The filesystem's reachability roots are small: one
// root record per account, one NameRing (plus unmerged patch chains) per
// namespace, queue entries naming doomed-but-unreclaimed namespaces.
// Scrub replays that structure against the complete set of stored object
// keys and classifies every object as live (reachable from a root
// record), queued (under a namespace a pending GC intent will reclaim),
// infra (queue entries and indexes themselves), or orphan — unreachable,
// unclaimed garbage, the failure mode the durable queue exists to
// prevent.
//
// Classification is relative to a point-in-time key universe, and every
// create writes its data object before linking it (WriteFile puts the
// content object before submitting the parent ring patch; chunked writes
// put segments before the manifest; Mkdir puts the child ring before the
// parent patch). On a live system a listing taken inside one of those
// windows therefore reports a just-created object as an orphan — a
// transient false positive in check mode, but fatal if reclaimed.
// Reclaim mode defends in two layers: deletion is restricted to keys in
// none of the first three classes, and each surviving candidate is
// re-verified against the live ring state (through the descriptor
// machinery, which sees patches submitted after the listing) immediately
// before deletion, sparing anything that has since become reachable.
// The re-check cannot see a mutation still in flight at that instant,
// so reclaim mode is guaranteed lossless only on a quiescent store —
// the offline-fsck contract h2inspect documents. Re-deleting an
// already-scrubbed object is the usual tolerated not-found.

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Objects   int      `json:"objects"`           // keys examined
	Live      int      `json:"live"`              // reachable from account root records
	Queued    int      `json:"queued"`            // awaiting a pending GC intent
	Infra     int      `json:"infra"`             // GC queue entries and indexes
	Orphans   []string `json:"orphans,omitempty"` // unreachable and unclaimed
	Reclaimed int      `json:"reclaimed"`         // orphans deleted (reclaim mode)
}

// classification marks; live beats queued so a scrub never over-claims.
const (
	classLive   = 'l'
	classQueued = 'q'
	classInfra  = 'i'
)

// scrubber carries one pass's working state.
type scrubber struct {
	m       *Middleware
	present map[string]bool
	class   map[string]byte
	patches map[string][]string // RingKey -> patch object keys, sorted
	rings   map[string]RingRead // by RingKey: the stored ring with its unmerged patches folded in
	visited map[string]bool     // RingKey -> walked already
}

// Scrub cross-checks every stored object key in names against the live
// filesystem structure and pending GC intents, reporting orphans and —
// when reclaim is set — deleting them. Callers supply the key universe
// (h2inspect unions Names() across cluster devices; a real deployment
// would feed a container listing). Check mode is always safe but may
// transiently report an object created after the listing as an orphan;
// reclaim mode re-verifies each candidate against the live ring state
// before deleting (reclassifying ones that became reachable as live)
// and should run against a quiescent store, since a mutation still in
// flight during the re-check can slip past it — see the package comment
// above.
func (m *Middleware) Scrub(ctx context.Context, names []string, reclaim bool) (ScrubReport, error) {
	sorted := make([]string, len(names))
	copy(sorted, names)
	sort.Strings(sorted)

	s := &scrubber{
		m:       m,
		present: make(map[string]bool, len(sorted)),
		class:   make(map[string]byte, len(sorted)),
		patches: make(map[string][]string),
		rings:   make(map[string]RingRead),
		visited: make(map[string]bool),
	}
	for _, n := range sorted {
		s.present[n] = true
	}

	// Pass 1: infrastructure keys and the patch inventory. Patch keys are
	// grouped under their ring key so merged-ring reconstruction can fold
	// unmerged chains in; sorted input keeps the groups deterministic.
	var entries []core.GCEntry
	for _, n := range sorted {
		switch {
		case core.IsGCIndexKey(n):
			s.class[n] = classInfra
		case core.IsGCQueueKey(n):
			s.class[n] = classInfra
			data, _, err := m.store.Get(ctx, n)
			if err != nil {
				if errors.Is(err, objstore.ErrNotFound) {
					continue // dequeued mid-scrub
				}
				return ScrubReport{}, fmt.Errorf("h2fs: scrub read %s: %w", n, err)
			}
			e, derr := core.DecodeGCEntry(data)
			if derr != nil {
				continue // corrupt entry claims nothing; its subtree surfaces as orphans
			}
			entries = append(entries, e)
		case strings.Contains(n, "::/NameRing/.Node"):
			rk := n[:strings.Index(n, ".Node")]
			s.patches[rk] = append(s.patches[rk], n)
		}
	}

	// Pass 2: live reachability from every account root record.
	for _, n := range sorted {
		account, ok := rootRecordAccount(n)
		if !ok {
			continue
		}
		s.class[n] = classLive
		data, _, err := m.store.Get(ctx, n)
		if err != nil {
			if errors.Is(err, objstore.ErrNotFound) {
				continue // account deleted mid-scrub
			}
			return ScrubReport{}, fmt.Errorf("h2fs: scrub read %s: %w", n, err)
		}
		if err := s.walk(ctx, account, string(data), classLive, false); err != nil {
			return ScrubReport{}, err
		}
	}

	// Pass 3: queued closures. A pending intent claims its whole doomed
	// subtree — every object under it, tombstoned or not, is garbage in
	// flight, not an orphan. Stale intents (the delete they record never
	// landed, so the live walk above already claimed the subtree) claim
	// nothing extra: marks never downgrade live to queued.
	for _, e := range entries {
		if e.Root {
			if s.rootAlive(ctx, e.Account, e.NS) {
				continue // stale intent: the deletion was never acknowledged
			}
		} else {
			parent, err := s.mergedRing(ctx, e.Account, e.ParentNS)
			if err != nil {
				return ScrubReport{}, err
			}
			if t, ok := parent.Ring.Get(e.Name); ok && !t.Deleted && t.NS == e.NS {
				continue // stale intent over a live subtree
			} else if !ok || t.Deleted {
				s.mark(e.EntryKey(), classQueued)
			}
		}
		if err := s.walk(ctx, e.Account, e.NS, classQueued, true); err != nil {
			return ScrubReport{}, err
		}
	}

	// Classify and (optionally) reclaim.
	rep := ScrubReport{Objects: len(sorted)}
	var orphans []string
	for _, n := range sorted {
		switch s.class[n] {
		case classLive:
			rep.Live++
		case classQueued:
			rep.Queued++
		case classInfra:
			rep.Infra++
		default:
			orphans = append(orphans, n)
		}
	}
	rep.Orphans = orphans
	if reclaim && len(orphans) > 0 {
		victims := make([]string, 0, len(orphans))
		for _, key := range orphans {
			live, err := s.becameReachable(ctx, key)
			if err != nil {
				return rep, err
			}
			if live {
				rep.Live++ // linked since the listing; not an orphan after all
				continue
			}
			victims = append(victims, key)
		}
		rep.Orphans = victims
		for _, err := range objstore.MultiDelete(ctx, m.store, victims) {
			if err != nil && !errors.Is(err, objstore.ErrNotFound) {
				return rep, fmt.Errorf("h2fs: scrub reclaim: %w", err)
			}
		}
		rep.Reclaimed = len(victims)
	}
	return rep, nil
}

// becameReachable re-checks one orphan candidate immediately before
// deletion. A data object (plain child or chunked segment) whose parent
// ring the scrub classified live is looked up again through the
// descriptor machinery, which sees ring patches submitted after the key
// universe was listed — the window where WriteFile's content object (or
// a chunked write's segments) lands before its linking patch. A live
// tuple means the object now belongs to the tree (or to a successor
// reusing the name) and must be spared. A candidate whose parent ring is
// itself unreachable stays an orphan: a tuple inside an unreachable ring
// links nothing. Ring and patch objects have no such cheap second check;
// the quiescent-store contract covers them.
func (s *scrubber) becameReachable(ctx context.Context, key string) (bool, error) {
	account, ns, name, ok := parseDataKey(key)
	if !ok {
		return false, nil
	}
	if s.class[core.RingKey(account, ns)] != classLive {
		return false, nil
	}
	t, found, err := s.m.lookupChild(ctx, account, ns, name)
	if err != nil {
		return false, fmt.Errorf("h2fs: scrub re-verify %s: %w", key, err)
	}
	return found && !t.Deleted, nil
}

// parseDataKey splits a key of ChildKey or chunked-segment shape into
// its account, namespace, and child name; ok is false for every other
// shape (ring, patch, root record, GC queue infrastructure).
func parseDataKey(key string) (account, ns, name string, ok bool) {
	account, rest, found := strings.Cut(key, "|")
	if !found {
		return "", "", "", false
	}
	ns, rest, found = strings.Cut(rest, "::")
	if !found || ns == "" {
		return "", "", "", false
	}
	if seg, isSeg := strings.CutPrefix(rest, "/slo/"); isSeg {
		i := strings.LastIndex(seg, "/")
		if i <= 0 {
			return "", "", "", false
		}
		return account, ns, seg[:i], true
	}
	if rest == "" || strings.Contains(rest, "/") {
		return "", "", "", false // ring, patch, and other reserved names
	}
	return account, ns, rest, true
}

// rootAlive reports whether account's root record still points at ns —
// the sign that a queued account deletion was never acknowledged.
func (s *scrubber) rootAlive(ctx context.Context, account, ns string) bool {
	data, _, err := s.m.store.Get(ctx, core.RootKey(account))
	return err == nil && string(data) == ns
}

// rootRecordAccount extracts the account from a root-record key.
func rootRecordAccount(key string) (string, bool) {
	account, rest, ok := strings.Cut(key, "|")
	if !ok || rest != "/root" {
		return "", false
	}
	return account, true
}

// mark classifies a key, if it exists and was not already claimed:
// first-claim-wins, and the pass order (infra, live, queued) encodes the
// precedence.
func (s *scrubber) mark(key string, c byte) {
	if key == "" || !s.present[key] {
		return
	}
	if s.class[key] == 0 {
		s.class[key] = c
	}
}

// mergedRing reconstructs a namespace's NameRing as the store sees it:
// the stored ring (ReadRing — the ring object or, for a sharded directory,
// the extents its manifest references) merged with every unmerged patch
// object present in the key universe, cached per ring key. A ring or patch
// that does not decode is an error, never an empty read: a scrub that
// mistook a torn ring for an empty directory would reclaim the live subtree
// under it. The manifest-referenced extent keys ride along (Extents) so the
// walk can claim them with the ring's class; extents no manifest
// references — the leavings of a crashed split — are claimed by nothing and
// surface as reclaimable orphans.
func (s *scrubber) mergedRing(ctx context.Context, account, ns string) (RingRead, error) {
	rk := core.RingKey(account, ns)
	if rr, ok := s.rings[rk]; ok {
		return rr, nil
	}
	rr, err := ReadRing(ctx, s.m.store, account, ns)
	switch {
	case errors.Is(err, objstore.ErrNotFound):
		rr = RingRead{Ring: core.NewNameRing()}
	case err != nil:
		return RingRead{}, fmt.Errorf("h2fs: scrub read %s: %w", rk, err)
	}
	for _, pk := range s.patches[rk] {
		pdata, _, err := s.m.store.Get(ctx, pk)
		if errors.Is(err, objstore.ErrNotFound) {
			continue
		}
		if err != nil {
			return RingRead{}, fmt.Errorf("h2fs: scrub read %s: %w", pk, err)
		}
		p, err := core.DecodePatch(pk, pdata)
		if err != nil {
			return RingRead{}, fmt.Errorf("h2fs: scrub read %s: %w", pk, err)
		}
		rr.Ring.Merge(p.Ring)
	}
	s.rings[rk] = rr
	return rr, nil
}

// walk claims one namespace subtree for class c. The live walk recurses
// only through live directory tuples; the queued walk (all set) claims
// everything — the subtree is doomed wholesale, tombstones included.
func (s *scrubber) walk(ctx context.Context, account, ns string, c byte, all bool) error {
	rk := core.RingKey(account, ns)
	vk := string(c) + rk
	if s.visited[vk] {
		return nil
	}
	s.visited[vk] = true
	s.mark(rk, c)
	for _, pk := range s.patches[rk] {
		s.mark(pk, c)
	}
	rr, err := s.mergedRing(ctx, account, ns)
	if err != nil {
		return err
	}
	// The extents the head object references share the ring's fate.
	for _, ek := range rr.Extents {
		s.mark(ek, c)
	}
	for _, t := range rr.Ring.All() {
		if t.Deleted && !all {
			continue // live walk: a tombstoned subtree belongs to queue or scrub
		}
		key := core.ChildKey(account, ns, t.Name)
		s.mark(key, c)
		if t.Chunked {
			if err := s.markSegments(ctx, account, ns, t.Name, c); err != nil {
				return err
			}
		}
		if t.Dir && t.NS != "" {
			if err := s.walk(ctx, account, t.NS, c, all); err != nil {
				return err
			}
		}
	}
	return nil
}

// markSegments claims a chunked file's segment objects via its manifest
// metadata. A missing or plain manifest claims nothing: segments with no
// manifest are exactly the orphan case the scrubber reports.
func (s *scrubber) markSegments(ctx context.Context, account, ns, name string, c byte) error {
	info, err := s.m.store.Head(ctx, core.ChildKey(account, ns, name))
	if err != nil {
		if errors.Is(err, objstore.ErrNotFound) {
			return nil
		}
		return fmt.Errorf("h2fs: scrub head %s: %w", core.ChildKey(account, ns, name), err)
	}
	chunks, _, ok := manifestInfo(info)
	if !ok {
		return nil
	}
	for i := 0; i < chunks; i++ {
		s.mark(sloSegKey(account, ns, name, i), c)
	}
	return nil
}
