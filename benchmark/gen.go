package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/workload"
)

// The benchmark's own trace generator. workload.GenerateOps rescans every
// directory and file per RMDIR/MOVE, which is quadratic at the trace
// lengths used here; this one keeps a pointer tree with indexable file
// and directory sets, so every op costs O(depth) to generate and every
// op is valid against the state the ops before it leave behind. The
// program under test only ever sees the generated ops.

// Kind is one user-visible operation kind. LIST with detail is its own
// kind because it is O(m) where the plain LIST is O(1).
type Kind uint8

const (
	KStat Kind = iota
	KRead
	KWrite
	KList
	KListD
	KMkdir
	KRmdir
	KMove
	KRename
	KCopy
	KRemove
	numKinds
)

var kindNames = [numKinds]string{
	"stat", "read", "write", "list", "listd", "mkdir", "rmdir", "move", "rename", "copy", "remove",
}

func (k Kind) String() string { return kindNames[k] }

// Op is one trace entry together with the result a correct filesystem
// must return for it.
type Op struct {
	Kind Kind
	Path string
	Dst  string // MOVE, COPY: destination path; RENAME: new base name
	Data []byte // WRITE: payload; READ: expected content
	Want int64  // STAT: size, or -1 for a directory; LIST: entry count
}

// node is one entry of the generator's model tree.
type node struct {
	name   string
	parent *node
	dir    bool
	kids   []*node // directories only, unordered
	kidIdx int     // position in parent.kids
	setIdx int     // position in model.files or model.dirs
	data   []byte  // files only
	below  int     // directories only: entries in the subtree, self excluded
	// lostDir marks a directory a subdirectory was moved or renamed out
	// of. Its ring keeps a tombstone naming the moved namespace, and the
	// program's eager GC follows tombstones: removing this directory
	// would reclaim the moved subtree at its new place, or, for a rename,
	// walk one namespace from two pipeline tasks whose interleaving
	// changes the request count. The generator never removes such a
	// directory: workloads must not contain failing ops, and the counted
	// pass must repeat exactly.
	lostDir bool
	// patched is the index of the last trace op that patched this
	// directory's ring, -1 if only the populate did. See removable.
	patched int

	path      string
	pathEpoch int
}

// model is the generator's view of one account's tree. It is also the
// oracle the verification pass compares the store against.
type model struct {
	root      *node
	files     []*node
	dirs      []*node // dirs[0] is the root
	epoch     int     // bumped when a directory moves; invalidates cached paths
	liveBytes int64
	seq       int
	pool      []byte // payloads are slices of this
	rng       *rand.Rand
	sizeAt    float64  // position in the low-discrepancy payload-size sequence
	deck      []action // actions of the current deal, see generate
	turn      int      // position in parentDepths
	now       int      // index of the trace op being generated, -1 during populate
	every     int      // the workload's K: the client runs maintenance after every K ops
}

func newModel(seed int64) *model {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]byte, 1<<20)
	rng.Read(pool)
	m := &model{root: &node{dir: true, patched: -1}, pool: pool, rng: rng, sizeAt: rng.Float64(), now: -1}
	m.dirs = []*node{m.root}
	return m
}

func (m *model) entries() int { return len(m.files) + len(m.dirs) - 1 }

// pathOf returns the node's absolute path, cached until a directory move
// could have changed it.
func (m *model) pathOf(n *node) string {
	if n == m.root {
		return "/"
	}
	if n.pathEpoch == m.epoch {
		return n.path
	}
	n.path = fsapi.Join(m.pathOf(n.parent), n.name)
	n.pathEpoch = m.epoch
	return n.path
}

func (m *model) freshName(prefix string) string {
	m.seq++
	return fmt.Sprintf("%s%06d", prefix, m.seq)
}

// payload draws a 64 B..4 KiB slice of the content pool, log-uniform in
// size: the system under test is the metadata path, file bytes pass
// straight through. Sizes step through a golden-ratio sequence from a
// seeded start, so any run of payloads covers the size range evenly and
// byte totals barely depend on the seed; content and offsets are random.
func (m *model) payload() []byte {
	m.sizeAt += math.Phi - 1
	m.sizeAt -= math.Floor(m.sizeAt)
	size := int(64 * math.Pow(2, m.sizeAt*6))
	off := m.rng.Intn(len(m.pool) - size)
	return m.pool[off : off+size : off+size]
}

func (m *model) link(n, parent *node, name string) {
	n.name, n.parent = name, parent
	n.kidIdx = len(parent.kids)
	parent.kids = append(parent.kids, n)
	n.pathEpoch = -1
	weight := 1 + n.below
	for a := parent; a != nil; a = a.parent {
		a.below += weight
	}
}

func (m *model) unlink(n *node) {
	p := n.parent
	last := p.kids[len(p.kids)-1]
	p.kids[n.kidIdx] = last
	last.kidIdx = n.kidIdx
	p.kids = p.kids[:len(p.kids)-1]
	weight := 1 + n.below
	for a := p; a != nil; a = a.parent {
		a.below -= weight
	}
}

func (m *model) index(n *node) {
	if n.dir {
		n.setIdx = len(m.dirs)
		m.dirs = append(m.dirs, n)
		return
	}
	n.setIdx = len(m.files)
	m.files = append(m.files, n)
	m.liveBytes += int64(len(n.data))
}

func (m *model) unindex(n *node) {
	set := &m.files
	if n.dir {
		set = &m.dirs
	} else {
		m.liveBytes -= int64(len(n.data))
	}
	last := (*set)[len(*set)-1]
	(*set)[n.setIdx] = last
	last.setIdx = n.setIdx
	*set = (*set)[:len(*set)-1]
}

func (m *model) addDir(parent *node, name string) *node {
	n := &node{dir: true, patched: -1}
	m.link(n, parent, name)
	m.index(n)
	return n
}

func (m *model) addFile(parent *node, name string, data []byte) *node {
	n := &node{data: data}
	m.link(n, parent, name)
	m.index(n)
	return n
}

func (m *model) overwrite(n *node, data []byte) {
	m.liveBytes += int64(len(data)) - int64(len(n.data))
	n.data = data
}

// drop removes n and everything beneath it.
func (m *model) drop(n *node) {
	m.unlink(n)
	m.unindexTree(n)
}

func (m *model) unindexTree(n *node) {
	m.unindex(n)
	for _, k := range n.kids {
		m.unindexTree(k)
	}
}

func (m *model) move(n, parent *node, name string) {
	if n.dir {
		n.parent.lostDir = true
	}
	m.unlink(n)
	m.link(n, parent, name)
	if n.dir {
		m.epoch++
	}
}

// clone copies the subtree at n under parent as name.
func (m *model) clone(n, parent *node, name string) *node {
	if !n.dir {
		return m.addFile(parent, name, n.data)
	}
	c := m.addDir(parent, name)
	for _, k := range n.kids {
		m.clone(k, c, k.name)
	}
	return c
}

// patch notes that the op being generated patches d's ring.
func (m *model) patch(d *node) { d.patched = m.now }

// flushed reports whether the client's own maintenance has run since d's
// ring was last patched, so that its descriptor is clean.
func (m *model) flushed(d *node) bool {
	if d.patched < 0 {
		return true
	}
	return m.every > 0 && d.patched/m.every < m.now/m.every
}

// removable reports whether RMDIR may pick d: small, no directory in it
// ever lost a subdirectory to a move or rename, and every ring in it
// flushed. The last condition keeps a race of the program out of the
// timed pass: while one client's RMDIR reclaims a directory, the other
// client's MaintainOnce may be flushing that directory's dirty ring, and
// a flush that lands between the reclaimer's snapshot and its ring
// delete puts the ring back as an orphan that Scrub then reports. A
// clean descriptor is never written by a flush.
func (m *model) removable(d *node) bool {
	if d.below > smallSubtree || d.lostDir || !m.flushed(d) {
		return false
	}
	for _, k := range d.kids {
		if k.dir && !m.removable(k) {
			return false
		}
	}
	return true
}

func (m *model) inside(n, anc *node) bool {
	for ; n != nil; n = n.parent {
		if n == anc {
			return true
		}
	}
	return false
}

// Op constructors: each applies the op to the model and returns the
// trace entry, so the expectation recorded in the entry is the model's
// state at that point of the trace.

func (m *model) opMkdir(parent *node, name string) Op {
	m.patch(parent)
	n := m.addDir(parent, name)
	return Op{Kind: KMkdir, Path: m.pathOf(n)}
}

func (m *model) opWriteNew(parent *node, name string) Op {
	m.patch(parent)
	n := m.addFile(parent, name, m.payload())
	return Op{Kind: KWrite, Path: m.pathOf(n), Data: n.data}
}

func (m *model) opOverwrite(n *node) Op {
	m.patch(n.parent)
	m.overwrite(n, m.payload())
	return Op{Kind: KWrite, Path: m.pathOf(n), Data: n.data}
}

func (m *model) opStat(n *node) Op {
	want := int64(-1)
	if !n.dir {
		want = int64(len(n.data))
	}
	return Op{Kind: KStat, Path: m.pathOf(n), Want: want}
}

func (m *model) opRead(n *node) Op {
	return Op{Kind: KRead, Path: m.pathOf(n), Data: n.data}
}

func (m *model) opList(n *node, detail bool) Op {
	k := KList
	if detail {
		k = KListD
	}
	return Op{Kind: k, Path: m.pathOf(n), Want: int64(len(n.kids))}
}

func (m *model) opRemove(n *node) Op {
	op := Op{Kind: KRemove, Path: m.pathOf(n)}
	m.patch(n.parent)
	m.drop(n)
	return op
}

func (m *model) opRmdir(n *node) Op {
	op := Op{Kind: KRmdir, Path: m.pathOf(n)}
	m.patch(n.parent)
	m.drop(n)
	return op
}

func (m *model) opRename(n *node, name string) Op {
	op := Op{Kind: KRename, Path: m.pathOf(n), Dst: name}
	m.patch(n.parent)
	m.move(n, n.parent, name)
	return op
}

func (m *model) opMove(n, parent *node, name string) Op {
	op := Op{Kind: KMove, Path: m.pathOf(n), Dst: fsapi.Join(m.pathOf(parent), name)}
	m.patch(n.parent)
	m.patch(parent)
	m.move(n, parent, name)
	return op
}

func (m *model) opCopy(n, parent *node, name string) Op {
	op := Op{Kind: KCopy, Path: m.pathOf(n), Dst: fsapi.Join(m.pathOf(parent), name)}
	m.patch(parent) // the copied rings themselves are written whole, not patched
	m.clone(n, parent, name)
	return op
}

// populateFrom turns a workload.Filesystem shape into populate ops:
// directories parents-first, then files, with the benchmark's own payload
// sizes in place of the shape's logical sizes.
func (m *model) populateFrom(fs *workload.Filesystem) []Op {
	byPath := map[string]*node{"/": m.root}
	ops := make([]Op, 0, len(fs.Dirs)+len(fs.Files))
	for _, d := range fs.Dirs {
		dir, name, _ := fsapi.Split(d)
		ops = append(ops, m.opMkdir(byPath[dir], name))
		byPath[d] = m.dirs[len(m.dirs)-1]
	}
	for _, f := range fs.Files {
		dir, name, _ := fsapi.Split(f.Path)
		ops = append(ops, m.opWriteNew(byPath[dir], name))
	}
	return ops
}

// action is one row of a mix: finer than Kind, because a workload may
// need to weight "write a new file" and "overwrite" separately.
type action uint8

const (
	aStatFile action = iota
	aStatDir
	aRead
	aWriteNew
	aOverwrite
	aList
	aListDetail
	aMkdir
	aRmdir
	aMove
	aRename
	aCopy
	aRemove
	numActions
)

// mix parameterizes the weighted generator.
type mix struct {
	weights [numActions]int
	// noRoot keeps the root out of directory picks, for workloads whose
	// traffic must stay inside the populated directories.
	noRoot bool
	// filesOnly restricts MOVE/RENAME/COPY sources to files.
	filesOnly bool
}

// smallSubtree bounds the directories RMDIR and COPY pick, so one op
// cannot delete or double most of the tree.
const smallSubtree = 64

func (m *model) pickFile() *node { return m.files[m.rng.Intn(len(m.files))] }

func (m *model) pickDir(mx *mix) *node {
	if mx.noRoot && len(m.dirs) > 1 {
		return m.dirs[1+m.rng.Intn(len(m.dirs)-1)]
	}
	return m.dirs[m.rng.Intn(len(m.dirs))]
}

func (m *model) depth(n *node) int {
	d := 0
	for ; n.parent != nil; n = n.parent {
		d++
	}
	return d
}

// parentDepths is the cycle of depths pickParent aims for: broad and
// shallow, the shape of the paper's light users (depth up to 4, most
// directories near the top).
var parentDepths = [...]int{0, 1, 1, 2, 2, 2, 3, 3, 4}

// pickParent draws where a new, moved or copied directory goes: of four
// random directories, the one whose depth is nearest the next target in
// parentDepths. Attaching uniformly grows a random recursive tree whose
// mean depth differs between seeds by a tenth and more, and every
// simulated lookup with it; steering by depth keeps the tree's profile,
// though not its members, the same for every seed.
func (m *model) pickParent(mx *mix) *node {
	target := parentDepths[m.turn%len(parentDepths)]
	m.turn++
	var best *node
	bestOff := 0
	for try := 0; try < 4; try++ {
		d := m.pickDir(mx)
		off := m.depth(d) - target
		if off < 0 {
			off = -off
		}
		if best == nil || off < bestOff {
			best, bestOff = d, off
		}
	}
	return best
}

// pickSubDir draws a non-root directory satisfying ok, giving up after a
// few tries so generation stays O(1) when few candidates exist.
func (m *model) pickSubDir(ok func(*node) bool) *node {
	if len(m.dirs) < 2 {
		return nil
	}
	for try := 0; try < 8; try++ {
		d := m.dirs[1+m.rng.Intn(len(m.dirs)-1)]
		if ok(d) {
			return d
		}
	}
	return nil
}

// pickEntry draws a file or (one time in four) a non-root directory.
func (m *model) pickEntry(mx *mix, okDir func(*node) bool) *node {
	if !mx.filesOnly && m.rng.Intn(4) == 0 {
		if d := m.pickSubDir(okDir); d != nil {
			return d
		}
	}
	if len(m.files) == 0 {
		return nil
	}
	return m.pickFile()
}

// generate appends n ops drawn from mx. Actions are dealt from a
// shuffled deck holding each action as often as its weight says, and the
// deck is reshuffled when it runs out: the order is random, but any 100
// consecutive ops hold the mix exactly, so op counts per kind — and the
// metrics an expensive, rare kind dominates — do not depend on the seed.
// An action whose precondition does not hold (no file left to read, no
// small directory to remove) falls through to creating a file, which
// always succeeds and restores the precondition.
func (m *model) generate(mx *mix, n int) []Op {
	ops := make([]Op, 0, n)
	for len(ops) < n {
		if len(m.deck) == 0 {
			for a, w := range mx.weights {
				for i := 0; i < w; i++ {
					m.deck = append(m.deck, action(a))
				}
			}
			m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
		}
		a := m.deck[len(m.deck)-1]
		m.deck = m.deck[:len(m.deck)-1]
		m.now++
		ops = append(ops, m.step(mx, a))
	}
	return ops
}

func (m *model) step(mx *mix, a action) Op {
	anyDir := func(*node) bool { return true }
	small := func(d *node) bool { return d.below <= smallSubtree }
	switch a {
	case aStatFile:
		if len(m.files) > 0 {
			return m.opStat(m.pickFile())
		}
	case aStatDir:
		if d := m.pickSubDir(anyDir); d != nil {
			return m.opStat(d)
		}
	case aRead:
		if len(m.files) > 0 {
			return m.opRead(m.pickFile())
		}
	case aOverwrite:
		if len(m.files) > 0 {
			return m.opOverwrite(m.pickFile())
		}
	case aList:
		return m.opList(m.pickDir(mx), false)
	case aListDetail:
		return m.opList(m.pickDir(mx), true)
	case aMkdir:
		return m.opMkdir(m.pickParent(mx), m.freshName("d"))
	case aRmdir:
		if d := m.pickSubDir(m.removable); d != nil {
			return m.opRmdir(d)
		}
	case aRemove:
		if len(m.files) > 0 {
			return m.opRemove(m.pickFile())
		}
	case aRename:
		if n := m.pickEntry(mx, anyDir); n != nil {
			return m.opRename(n, m.freshName("r"))
		}
	case aMove:
		if n := m.pickEntry(mx, anyDir); n != nil {
			dst := m.pickParent(mx)
			if !m.inside(dst, n) {
				return m.opMove(n, dst, m.freshName("m"))
			}
		}
	case aCopy:
		if n := m.pickEntry(mx, small); n != nil {
			dst := m.pickParent(mx)
			if !m.inside(dst, n) {
				return m.opCopy(n, dst, m.freshName("c"))
			}
		}
	}
	return m.opWriteNew(m.pickDir(mx), m.freshName("f")+".dat")
}

// snapshot is the model state the counted pass needs at the end of its
// prefix: what a user would say they have stored.
type snapshot struct {
	liveBytes int64
	entries   int
}

func (m *model) snapshot() snapshot { return snapshot{m.liveBytes, m.entries()} }

// flatten lists every path of the model with its expected metadata.
func (m *model) flatten() map[string]fsapi.EntryInfo {
	out := make(map[string]fsapi.EntryInfo, m.entries())
	var walk func(n *node, path string)
	walk = func(n *node, path string) {
		for _, k := range n.kids {
			p := fsapi.Join(path, k.name)
			out[p] = fsapi.EntryInfo{Name: k.name, IsDir: k.dir, Size: int64(len(k.data))}
			if k.dir {
				walk(k, p)
			}
		}
	}
	walk(m.root, "/")
	return out
}
