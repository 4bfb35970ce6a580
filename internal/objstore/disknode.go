package objstore

import (
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// NodeStore is the per-device storage contract shared by the in-memory
// Node and the persistent DiskNode; the cluster's replication layer works
// against it.
type NodeStore interface {
	// ID returns the device ID.
	ID() int
	// SetDown marks the node unavailable (failure injection).
	SetDown(down bool)
	// Down reports whether the node is marked unavailable.
	Down() bool
	// PutSealed stores s under its name; the node shares it, so neither
	// side writes it afterwards. It is the only write into a node.
	PutSealed(s *Sealed) error
	// Load returns the stored version without copying it.
	Load(name string) (*Sealed, error)
	// Get returns a private copy of the object's content, and its metadata.
	Get(name string) ([]byte, ObjectInfo, error)
	// Head returns the object's metadata.
	Head(name string) (ObjectInfo, error)
	// Delete removes the object.
	Delete(name string) error
	// Stats reports object count and stored bytes.
	Stats() (objects int, bytes int64)
	// Names returns all object names, sorted.
	Names() []string
}

var (
	_ NodeStore = (*Node)(nil)
	_ NodeStore = (*DiskNode)(nil)
)

// DiskNode is a storage device persisted to a directory: each object is a
// data file plus a JSON metadata sidecar, keyed by the MD5 of its name.
// Writes go through a temp-file rename so a crash never leaves a torn
// object. An in-memory index of metadata keeps HEAD and listing fast; it
// is rebuilt from the sidecars on open.
type DiskNode struct {
	id  int
	dir string

	mu    sync.RWMutex
	down  bool
	index map[string]ObjectInfo
	bytes int64
}

// diskMeta is the sidecar schema.
type diskMeta struct {
	Name         string            `json:"name"`
	Size         int64             `json:"size"`
	ETag         string            `json:"etag"`
	LastModified time.Time         `json:"lastModified"`
	Meta         map[string]string `json:"meta,omitempty"`
}

// OpenDiskNode opens (creating if needed) a persistent node rooted at
// dir, rebuilding its index from the metadata sidecars.
func OpenDiskNode(id int, dir string) (*DiskNode, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: disk node %d: %w", id, err)
	}
	n := &DiskNode{id: id, dir: dir, index: make(map[string]ObjectInfo)}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".meta") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var dm diskMeta
		if err := json.Unmarshal(raw, &dm); err != nil {
			return fmt.Errorf("objstore: corrupt sidecar %s: %w", path, err)
		}
		info := ObjectInfo{
			Name: dm.Name, Size: dm.Size, ETag: dm.ETag,
			LastModified: dm.LastModified, Meta: dm.Meta,
		}
		n.index[dm.Name] = info
		n.bytes += dm.Size
		return nil
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// ID returns the node's device ID.
func (n *DiskNode) ID() int { return n.id }

// SetDown marks the node unavailable.
func (n *DiskNode) SetDown(down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = down
}

// Down reports whether the node is marked unavailable.
func (n *DiskNode) Down() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.down
}

// paths returns the data and sidecar file paths for an object name.
func (n *DiskNode) paths(name string) (data, meta string) {
	sum := md5.Sum([]byte(name))
	base := filepath.Join(n.dir, hex.EncodeToString(sum[:]))
	return base + ".data", base + ".meta"
}

// writeAtomic writes content to path via a temp file + rename.
func writeAtomic(path string, content []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, content, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Put seals data and stores it durably: PutSealed(Seal(...)).
func (n *DiskNode) Put(name string, data []byte, meta map[string]string, now time.Time) error {
	return n.PutSealed(Seal(name, data, meta, now))
}

// PutSealed stores the object durably, its sidecar carrying the sealed
// header as it stands.
func (n *DiskNode) PutSealed(s *Sealed) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown
	}
	info := s.info
	dataPath, metaPath := n.paths(info.Name)
	sidecar, err := json.Marshal(diskMeta{
		Name: info.Name, Size: info.Size, ETag: info.ETag,
		LastModified: info.LastModified, Meta: info.Meta,
	})
	if err != nil {
		return err
	}
	if err := writeAtomic(dataPath, s.data); err != nil {
		return err
	}
	if err := writeAtomic(metaPath, sidecar); err != nil {
		return err
	}
	if old, ok := n.index[info.Name]; ok {
		n.bytes -= old.Size
	}
	n.index[info.Name] = info
	n.bytes += info.Size
	return nil
}

// Load reads the object's content from disk under its indexed header.
func (n *DiskNode) Load(name string) (*Sealed, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.down {
		return nil, ErrNodeDown
	}
	info, ok := n.index[name]
	if !ok {
		return nil, ErrNotFound
	}
	dataPath, _ := n.paths(name)
	data, err := os.ReadFile(dataPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	return &Sealed{info: info, data: data}, nil
}

// Get reads the object's content from disk: the buffer Load filled is
// nobody else's, so it is the caller's private copy as it is.
func (n *DiskNode) Get(name string) ([]byte, ObjectInfo, error) {
	s, err := n.Load(name)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	return s.data, s.info, nil
}

// Head returns the object's metadata from the in-memory index.
func (n *DiskNode) Head(name string) (ObjectInfo, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.down {
		return ObjectInfo{}, ErrNodeDown
	}
	info, ok := n.index[name]
	if !ok {
		return ObjectInfo{}, ErrNotFound
	}
	return info, nil
}

// Delete removes the object's files and index entry.
func (n *DiskNode) Delete(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown
	}
	info, ok := n.index[name]
	if !ok {
		return ErrNotFound
	}
	dataPath, metaPath := n.paths(name)
	if err := os.Remove(metaPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := os.Remove(dataPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	delete(n.index, name)
	n.bytes -= info.Size
	return nil
}

// Stats reports object count and stored bytes.
func (n *DiskNode) Stats() (int, int64) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.index), n.bytes
}

// Names returns all object names, sorted.
func (n *DiskNode) Names() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	names := make([]string, 0, len(n.index))
	for name := range n.index {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
