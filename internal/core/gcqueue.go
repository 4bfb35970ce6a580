package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Durable garbage-collection queue records. RMDIR (and account deletion)
// is fake deletion (§3.3.3): one tombstone makes a whole subtree
// unreachable at O(1) NameRing cost, and the objects underneath are
// reclaimed out-of-band. The queue makes that reclamation crash-safe:
// before the tombstone is submitted, a GCEntry — the intent to reclaim
// namespace NS — is written as an ordinary object on the same consistent
// hashing ring, and a per-node GCIndex object records the live sequence
// span so a restarted node can find every pending intent without a
// listing primitive. Entries are deleted only after the subtree is fully
// reclaimed, so replay after a crash re-walks already-emptied namespaces
// (every delete tolerates "already gone") instead of losing work.

const (
	gcEntryMagic = "H2GCQ/1"
	gcIndexMagic = "H2GCX/1"
)

// GCEntry is one durable reclamation intent: namespace NS of Account is
// (about to be) unreachable and its subtree must be reclaimed. For a
// directory removal, ParentNS/Name identify the tombstoned tuple in the
// parent's NameRing — the drain validates the intent against that tuple,
// so an intent whose RMDIR was never acknowledged (crash between enqueue
// and tombstone) is dropped instead of reclaiming a live subtree. For an
// account deletion Root is set and validation checks the account's root
// record instead.
type GCEntry struct {
	Account  string
	NS       string // namespace whose subtree is to be reclaimed
	ParentNS string // namespace holding the tombstoned tuple ("" when Root)
	Name     string // tombstoned child name ("" when Root)
	Root     bool   // account deletion: NS is the account's root namespace
	Enqueued int64  // enqueue timestamp, nanoseconds
}

// EntryKey returns the object key of the directory child object the
// entry's tombstone shadows ("" for account deletions).
func (e GCEntry) EntryKey() string {
	if e.Root || e.ParentNS == "" {
		return ""
	}
	return ChildKey(e.Account, e.ParentNS, e.Name)
}

// Acked decides whether the delete e records was acknowledged, given
// the tuple that now stands where its commit landed (ok false when
// there is none): the parent's tuple for e.Name, or for an account
// deletion the root record, its namespace in NS. A live tuple still
// naming e.NS means the commit never happened: the intent is stale and
// the subtree must not be touched. Otherwise the delete happened, and
// key is the entry object the reclamation may delete: EntryKey while
// the name is tombstoned or gone, "" when a live successor under
// another namespace reuses it (that object is the successor's).
func (e GCEntry) Acked(t Tuple, ok bool) (acked bool, key string) {
	if ok && !t.Deleted {
		return t.NS != e.NS, ""
	}
	return true, e.EntryKey()
}

// EncodeGCEntry packs an intent record into its ASCII object form, one
// key=value per line with the child name Go-quoted (arbitrary names
// survive the round trip, matching the NameRing codec).
func EncodeGCEntry(e GCEntry) []byte {
	name := strconv.Quote(e.Name)
	buf := make([]byte, 0, len(gcEntryMagic)+len(e.Account)+len(e.NS)+len(e.ParentNS)+len(name)+64)
	buf = append(buf, gcEntryMagic...)
	buf = append(buf, "\naccount="...)
	buf = append(buf, e.Account...)
	buf = append(buf, "\nns="...)
	buf = append(buf, e.NS...)
	buf = append(buf, "\nparent="...)
	buf = append(buf, e.ParentNS...)
	buf = append(buf, "\nname="...)
	buf = append(buf, name...)
	buf = append(buf, "\nroot="...)
	if e.Root {
		buf = append(buf, '1')
	} else {
		buf = append(buf, '0')
	}
	buf = append(buf, "\nenqueued="...)
	buf = strconv.AppendInt(buf, e.Enqueued, 10)
	buf = append(buf, '\n')
	return buf
}

// DecodeGCEntry parses the output of EncodeGCEntry.
func DecodeGCEntry(data []byte) (GCEntry, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || lines[0] != gcEntryMagic {
		return GCEntry{}, fmt.Errorf("core: not a gc queue entry (bad magic)")
	}
	var e GCEntry
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return GCEntry{}, fmt.Errorf("core: gc entry line malformed: %q", line)
		}
		switch key {
		case "account":
			e.Account = val
		case "ns":
			e.NS = val
		case "parent":
			e.ParentNS = val
		case "name":
			name, err := strconv.Unquote(val)
			if err != nil {
				return GCEntry{}, fmt.Errorf("core: gc entry bad name: %w", err)
			}
			e.Name = name
		case "root":
			e.Root = val == "1"
		case "enqueued":
			ts, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return GCEntry{}, fmt.Errorf("core: gc entry bad enqueued: %w", err)
			}
			e.Enqueued = ts
		default:
			return GCEntry{}, fmt.Errorf("core: gc entry unknown field %q", key)
		}
	}
	if e.NS == "" {
		return GCEntry{}, fmt.Errorf("core: gc entry missing namespace")
	}
	return e, nil
}

// GCIndexEntry is one account's pending sequence span in a node's queue
// index: entries with Cursor <= seq <= Head may still exist (a probe of a
// reclaimed sequence answers not-found and is skipped, so a stale cursor
// only costs probes, never correctness).
type GCIndexEntry struct {
	Account string
	Cursor  int // lowest possibly-pending sequence
	Head    int // highest sequence ever enqueued
}

// EncodeGCIndex packs a queue index, sorted by account for deterministic
// bytes.
func EncodeGCIndex(entries []GCIndexEntry) []byte {
	sorted := make([]GCIndexEntry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Account < sorted[j].Account })
	buf := make([]byte, 0, len(gcIndexMagic)+1+len(sorted)*32)
	buf = append(buf, gcIndexMagic...)
	buf = append(buf, '\n')
	for _, e := range sorted {
		buf = append(buf, e.Account...)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(e.Cursor), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(e.Head), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// DecodeGCIndex parses the output of EncodeGCIndex.
func DecodeGCIndex(data []byte) ([]GCIndexEntry, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || lines[0] != gcIndexMagic {
		return nil, fmt.Errorf("core: not a gc queue index (bad magic)")
	}
	out := make([]GCIndexEntry, 0, len(lines)-1)
	for i, line := range lines[1:] {
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			return nil, fmt.Errorf("core: gc index line %d malformed: %q", i+2, line)
		}
		cursor, err1 := strconv.Atoi(fields[1])
		head, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("core: gc index line %d bad span: %q", i+2, line)
		}
		out = append(out, GCIndexEntry{Account: fields[0], Cursor: cursor, Head: head})
	}
	return out, nil
}
