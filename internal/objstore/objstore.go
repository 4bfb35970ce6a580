// Package objstore defines the flat object storage primitives that the
// whole H2Cloud stack — and every baseline filesystem — is built on.
//
// An object storage cloud (paper §1) exposes only PUT, GET and DELETE on a
// flat namespace; HEAD and server-side COPY are the two auxiliary
// primitives mainstream clouds (Swift, S3) add. Store is that contract.
// The production implementation in this repository is
// internal/cluster.Cluster, a replicated in-process cloud; tests may use
// the simple single-node Node directly.
package objstore

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"slices"
	"sort"
	"sync"
	"time"
)

// ObjectInfo describes a stored object.
type ObjectInfo struct {
	Name         string
	Size         int64
	ETag         string // SealedETag of the content and metadata
	LastModified time.Time
	Meta         map[string]string // user metadata, copied on write
}

// Typed errors returned by Store implementations.
var (
	// ErrNotFound reports that the named object does not exist.
	ErrNotFound = errors.New("objstore: object not found")
	// ErrNodeDown reports that a storage node is unavailable.
	ErrNodeDown = errors.New("objstore: node down")
	// ErrNoQuorum reports that too few replicas were reachable to commit a
	// write durably.
	ErrNoQuorum = errors.New("objstore: quorum not reached")
	// ErrPrecondition reports that a conditional write (PutReq.IfMatch)
	// found another version than the one it names, and wrote nothing.
	ErrPrecondition = errors.New("objstore: precondition failed")
)

// Transient reports whether err is a fault that may heal on retry: a
// node that is down can restart, and a write that missed quorum can
// succeed once replicas return. ErrNotFound is not transient — the
// object is genuinely absent from every reachable replica — and neither
// is ErrPrecondition: the version it found stays until someone rewrites it.
func Transient(err error) bool {
	return errors.Is(err, ErrNodeDown) || errors.Is(err, ErrNoQuorum)
}

// Store is the flat object interface (the paper's PUT/GET/DELETE "and other
// primitives", §4.2). All methods are safe for concurrent use.
type Store interface {
	// Put stores data under name, overwriting any existing object.
	Put(ctx context.Context, name string, data []byte, meta map[string]string) error
	// Get returns the object's content and metadata.
	Get(ctx context.Context, name string) ([]byte, ObjectInfo, error)
	// GetRange returns length bytes of the object starting at offset
	// (length < 0 means to the end), with only the returned bytes
	// counting as transfer. Offsets past the end yield an empty slice.
	GetRange(ctx context.Context, name string, offset, length int64) ([]byte, ObjectInfo, error)
	// Head returns the object's metadata without its content.
	Head(ctx context.Context, name string) (ObjectInfo, error)
	// Delete removes the object. Deleting a missing object returns
	// ErrNotFound.
	Delete(ctx context.Context, name string) error
	// Copy duplicates src to dst server-side without client transfer.
	Copy(ctx context.Context, src, dst string) error
}

// ETag computes the hex MD5 content hash: the ETag of an object stored
// without metadata.
func ETag(data []byte) string {
	return hexTag(md5.Sum(data))
}

// SealedETag is the ETag Seal gives a version. Without metadata it is
// ETag(data); with metadata it is the MD5 of the content's MD5 followed by
// every key and value in key order, so a version that changed only its
// metadata changes its ETag too, and a conditional write (PutReq.IfMatch)
// notices it. A few short pairs hash with no allocation but the string.
func SealedETag(data []byte, meta map[string]string) string {
	if len(meta) == 0 {
		return ETag(data)
	}
	var keyBuf [8]string
	keys := keyBuf[:0]
	for k := range meta {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var buf [256]byte
	sum := md5.Sum(data)
	b := append(buf[:0], sum[:]...)
	for _, k := range keys {
		b = append(append(append(append(b, k...), 0), meta[k]...), 0)
	}
	return hexTag(md5.Sum(b))
}

func hexTag(sum [md5.Size]byte) string {
	var buf [2 * md5.Size]byte
	hex.Encode(buf[:], sum[:])
	return string(buf[:])
}

// Absent is the IfMatch of a create-only write: it holds where no version
// is stored. It is no ETag, so a list of remembered tags can hold it for
// "known to be absent".
const Absent = "absent"

// Holds reports whether the precondition ifMatch holds over the stored
// version cur, or over none when found is false: "" always holds, Absent
// only over none, and any other value only over a version with that ETag.
func Holds(ifMatch string, cur ObjectInfo, found bool) bool {
	switch ifMatch {
	case "":
		return true
	case Absent:
		return !found
	}
	return found && cur.ETag == ifMatch
}

// Sealed is one immutable object version: a private copy of the content,
// its ETag, and the header (name, size, LastModified, metadata copy). It
// is what a node stores and what the replicas of one write share, so it
// is never written after Seal: not its bytes, not its metadata map. Load
// hands the stored pointer out without copying; everything that leaves
// the replication layer goes through Get, which copies.
type Sealed struct {
	info ObjectInfo
	data []byte
}

// Seal builds the stored version of one write: it copies data and meta
// and hashes them (SealedETag), once, whatever number of replicas will
// hold it.
func Seal(name string, data []byte, meta map[string]string, now time.Time) *Sealed {
	stored := make([]byte, len(data))
	copy(stored, data)
	var metaCopy map[string]string
	if len(meta) > 0 {
		metaCopy = make(map[string]string, len(meta))
		for k, v := range meta {
			metaCopy[k] = v
		}
	}
	return &Sealed{
		data: stored,
		info: ObjectInfo{
			Name:         name,
			Size:         int64(len(stored)),
			ETag:         SealedETag(stored, metaCopy),
			LastModified: now,
			Meta:         metaCopy,
		},
	}
}

// Info returns the version's header. Its Meta map is the sealed one:
// read it, never write it.
func (s *Sealed) Info() ObjectInfo { return s.info }

// Bytes returns the sealed content itself, not a copy: read it, never
// write it.
func (s *Sealed) Bytes() []byte { return s.data }

// As returns the same content under another name and timestamp — what a
// server-side COPY stores: the bytes, ETag and metadata are shared with
// s, so nothing is copied and nothing is hashed.
func (s *Sealed) As(name string, now time.Time) *Sealed {
	c := *s
	c.info.Name = name
	c.info.LastModified = now
	return &c
}

// Node is one in-memory storage device. It implements the per-device half
// of the cloud: the replication, placement and cost accounting live in
// internal/cluster. The zero value is not usable; call NewNode.
//
// Every method but Names holds mu for one map operation, reads included.
// A plain Mutex spins about that long before it parks, where an RWMutex's
// RLock parks at once behind any writer that holds or waits for the lock,
// and every client writes the nodes it reads.
type Node struct {
	id int

	mu      sync.Mutex
	down    bool
	objects map[string]*Sealed
	bytes   int64
}

// NewNode returns an empty storage node with the given device ID.
func NewNode(id int) *Node {
	return &Node{id: id, objects: make(map[string]*Sealed)}
}

// ID returns the node's device ID.
func (n *Node) ID() int { return n.id }

// SetDown marks the node unavailable (true) or available (false); used for
// failure injection.
func (n *Node) SetDown(down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = down
}

// Down reports whether the node is marked unavailable.
func (n *Node) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// Put seals data and stores it: PutSealed(Seal(...)), for callers that
// hold one node rather than a replica set.
func (n *Node) Put(name string, data []byte, meta map[string]string, now time.Time) error {
	return n.PutSealed(Seal(name, data, meta, now))
}

// PutSealed stores s under its name, sharing it with whoever else holds
// it.
func (n *Node) PutSealed(s *Sealed) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown
	}
	if old, ok := n.objects[s.info.Name]; ok {
		n.bytes -= old.info.Size
	}
	n.objects[s.info.Name] = s
	n.bytes += s.info.Size
	return nil
}

// Load returns the stored version itself, uncopied; its callers live in
// this package and in internal/cluster.
func (n *Node) Load(name string) (*Sealed, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, ErrNodeDown
	}
	s, ok := n.objects[name]
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// Get returns a copy of the object's content and its metadata.
func (n *Node) Get(name string) ([]byte, ObjectInfo, error) {
	s, err := n.Load(name)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	data := make([]byte, len(s.data))
	copy(data, s.data)
	return data, s.info, nil
}

// Head returns the object's metadata.
func (n *Node) Head(name string) (ObjectInfo, error) {
	s, err := n.Load(name)
	if err != nil {
		return ObjectInfo{}, err
	}
	return s.info, nil
}

// Delete removes the object.
func (n *Node) Delete(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown
	}
	o, ok := n.objects[name]
	if !ok {
		return ErrNotFound
	}
	n.bytes -= o.info.Size
	delete(n.objects, name)
	return nil
}

// Stats reports the node's object count and stored bytes.
func (n *Node) Stats() (objects int, bytes int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.objects), n.bytes
}

// Names returns all object names on the node, sorted. Intended for
// anti-entropy repair and tests, not the data path.
func (n *Node) Names() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := make([]string, 0, len(n.objects))
	for name := range n.objects {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
