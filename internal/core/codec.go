package core

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// The Formatter (§4.4) "stringifies" every data type into ASCII objects
// before it is put in the object storage cloud: files are stored as raw
// byte strings, directories as small ASCII records carrying their
// namespace, and NameRings (and patches, which share the NameRing format)
// as alphabetically sorted tuple lists packed one per line.
//
// The codecs below are on the per-operation hot path (every metadata op
// decodes a ring, mutates it, and re-encodes it), so they are written for
// low allocation: encoding sorts through a pooled scratch slice and
// appends into one pre-sized buffer; decoding makes exactly one copy of
// the input and hands out sub-strings of that copy, so the caller may
// reuse or mutate the input buffer freely after Decode returns.

const (
	ringMagic = "H2NR/1"
	dirMagic  = "H2DIR/1"
)

var dirMagicLine = []byte(dirMagic + "\n")

// tupleScratch pools the tuple scratch used by EncodeNameRing. Pooling a
// *[]Tuple (not the slice header itself) keeps Put allocation-free.
var tupleScratch = sync.Pool{New: func() any { s := make([]Tuple, 0, 64); return &s }}

// EncodeNameRing packs a NameRing into its ASCII object representation:
// the magic line followed by one "name<TAB>timestamp<TAB>flags<TAB>ns"
// line per tuple, alphabetically sorted by name. Names are Go-quoted so
// arbitrary child names survive the round trip; the namespace field is
// "-" for files.
//
// The returned buffer is always freshly allocated — object stores are
// allowed to retain Put data, so encode output is never pooled.
func EncodeNameRing(r *NameRing) []byte {
	sp := tupleScratch.Get().(*[]Tuple)
	tuples := r.AppendAll((*sp)[:0])
	buf := encodeTuples(tuples)
	clear(tuples) // drop string references before pooling
	*sp = tuples[:0]
	tupleScratch.Put(sp)
	return buf
}

// extentScratch is the scratch of EncodeNameRingExtents: one tuple
// list per requested extent, pooled as a unit.
type extentScratch struct{ parts [][]Tuple }

// Reset empties every part, dropping its string references.
func (s *extentScratch) Reset() {
	for i, p := range s.parts {
		clear(p)
		s.parts[i] = p[:0]
	}
}

var extentScratchPool = sync.Pool{New: func() any { return new(extentScratch) }}

// EncodeNameRingExtents packs the requested sub-ring extents of a sharded
// directory, out[i] holding extent want[i] of shards: the ring's names are
// walked in order and each routed (ShardOf) exactly once however many
// extents are asked for, so a steady flush of k dirty extents and a split
// into all of them cost the same single pass, every part comes out sorted,
// and tuples are looked up only for wanted extents. Every extent is an
// ordinary NameRing object — the tuples routing to it, tombstones
// included, sorted by name — and round-trips through DecodeNameRing. want
// must hold distinct indices in [0, shards), shards at most MaxDirShards.
func EncodeNameRingExtents(r *NameRing, shards int, want []int) [][]byte {
	var slot [MaxDirShards]int16 // shard -> 1 + its position in want; 0 = not wanted
	for i, s := range want {
		slot[s] = int16(i + 1)
	}
	sc := extentScratchPool.Get().(*extentScratch)
	if grow := len(want) - len(sc.parts); grow > 0 {
		sc.parts = append(sc.parts, make([][]Tuple, grow)...)
	}
	for _, name := range r.names() {
		if i := slot[ShardOf(name, shards)]; i > 0 {
			sc.parts[i-1] = append(sc.parts[i-1], r.children[name])
		}
	}
	out := make([][]byte, len(want))
	for i := range out {
		out[i] = encodeTuples(sc.parts[i])
	}
	sc.Reset()
	extentScratchPool.Put(sc)
	return out
}

// encodeTuples writes the NameRing object form of an already-sorted tuple
// list into one freshly allocated, pre-sized buffer.
func encodeTuples(tuples []Tuple) []byte {
	// Pre-size for the common case of names without escapes; a name that
	// quotes longer than len+2 costs at most one regrow.
	size := len(ringMagic) + 1
	for i := range tuples {
		t := &tuples[i]
		ns := len(t.NS)
		if ns == 0 {
			ns = 1
		}
		size += len(t.Name) + 2 + 1 + 20 + 1 + 3 + 1 + ns + 1
	}
	buf := make([]byte, 0, size)
	buf = append(buf, ringMagic...)
	buf = append(buf, '\n')
	for i := range tuples {
		t := &tuples[i]
		buf = strconv.AppendQuote(buf, t.Name)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, t.Time, 10)
		buf = append(buf, '\t')
		var fl [3]byte
		n := 0
		if t.Dir {
			fl[n] = 'd'
			n++
		}
		if t.Deleted {
			fl[n] = 'x'
			n++
		}
		if t.Chunked {
			fl[n] = 'c'
			n++
		}
		if n == 0 {
			fl[n] = '-'
			n++
		}
		buf = append(buf, fl[:n]...)
		buf = append(buf, '\t')
		if t.NS == "" {
			buf = append(buf, '-')
		} else {
			buf = append(buf, t.NS...)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// DecodeNameRing parses the output of EncodeNameRing.
//
// Alias safety: the input is copied once up front and every string in the
// returned ring is a sub-string of that copy, so mutating data after the
// call cannot corrupt the result.
func DecodeNameRing(data []byte) (*NameRing, error) {
	s := string(data) // the single defensive copy; everything below sub-slices it
	var rest string
	if nl := strings.IndexByte(s, '\n'); nl >= 0 {
		if s[:nl] != ringMagic {
			return nil, fmt.Errorf("core: not a NameRing object (bad magic)")
		}
		rest = s[nl+1:]
	} else {
		if s != ringMagic {
			return nil, fmt.Errorf("core: not a NameRing object (bad magic)")
		}
		rest = ""
	}
	r := newNameRingCap(strings.Count(rest, "\n") + 1)
	for i := 0; rest != ""; i++ {
		var line string
		if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		} else {
			line, rest = rest, ""
		}
		if line == "" {
			continue
		}
		// Split into exactly 4 TAB-separated fields without allocating.
		tab1 := strings.IndexByte(line, '\t')
		if tab1 < 0 {
			return nil, fmt.Errorf("core: NameRing line %d malformed: %q", i+2, line)
		}
		tab2 := strings.IndexByte(line[tab1+1:], '\t')
		if tab2 < 0 {
			return nil, fmt.Errorf("core: NameRing line %d malformed: %q", i+2, line)
		}
		tab2 += tab1 + 1
		tab3 := strings.IndexByte(line[tab2+1:], '\t')
		if tab3 < 0 {
			return nil, fmt.Errorf("core: NameRing line %d malformed: %q", i+2, line)
		}
		tab3 += tab2 + 1
		if strings.IndexByte(line[tab3+1:], '\t') >= 0 {
			return nil, fmt.Errorf("core: NameRing line %d malformed: %q", i+2, line)
		}
		name, err := strconv.Unquote(line[:tab1])
		if err != nil {
			return nil, fmt.Errorf("core: NameRing line %d bad name: %w", i+2, err)
		}
		ts, err := strconv.ParseInt(line[tab1+1:tab2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: NameRing line %d bad timestamp: %w", i+2, err)
		}
		t := Tuple{Name: name, Time: ts}
		for _, c := range line[tab2+1 : tab3] {
			switch c {
			case 'd':
				t.Dir = true
			case 'x':
				t.Deleted = true
			case 'c':
				t.Chunked = true
			case '-':
			default:
				return nil, fmt.Errorf("core: NameRing line %d unknown flag %q", i+2, c)
			}
		}
		if ns := line[tab3+1:]; ns != "-" {
			t.NS = ns
		}
		r.Set(t)
	}
	return r, nil
}

// DirObject is the stringified directory record (§4.4): a directory is
// "converted to an ASCII string corresponding to its namespace".
type DirObject struct {
	NS      string // the directory's namespace UUID
	Name    string // the directory's base name
	Created int64  // creation UNIX timestamp in nanoseconds
}

// EncodeDir packs a directory record into its ASCII object form. It is
// on the per-operation hot path, so the buffer is pre-sized and built
// with append instead of fmt.
func EncodeDir(d DirObject) []byte {
	buf := make([]byte, 0, len(dirMagic)+len(d.NS)+len(d.Name)+2+40)
	buf = append(buf, dirMagic...)
	buf = append(buf, "\nns="...)
	buf = append(buf, d.NS...)
	buf = append(buf, "\nname="...)
	buf = strconv.AppendQuote(buf, d.Name)
	buf = append(buf, "\ncreated="...)
	buf = strconv.AppendInt(buf, d.Created, 10)
	buf = append(buf, '\n')
	return buf
}

// DecodeDir parses the output of EncodeDir. Like DecodeNameRing it copies
// the input once and returns sub-strings of that copy (alias-safe).
func DecodeDir(data []byte) (DirObject, error) {
	s := string(data)
	var rest string
	if nl := strings.IndexByte(s, '\n'); nl >= 0 {
		if s[:nl] != dirMagic {
			return DirObject{}, fmt.Errorf("core: not a directory object (bad magic)")
		}
		rest = s[nl+1:]
	} else {
		if s != dirMagic {
			return DirObject{}, fmt.Errorf("core: not a directory object (bad magic)")
		}
		rest = ""
	}
	var d DirObject
	for rest != "" {
		var line string
		if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		} else {
			line, rest = rest, ""
		}
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return DirObject{}, fmt.Errorf("core: directory line malformed: %q", line)
		}
		switch key {
		case "ns":
			d.NS = val
		case "name":
			name, err := strconv.Unquote(val)
			if err != nil {
				return DirObject{}, fmt.Errorf("core: directory bad name: %w", err)
			}
			d.Name = name
		case "created":
			ts, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return DirObject{}, fmt.Errorf("core: directory bad created: %w", err)
			}
			d.Created = ts
		default:
			return DirObject{}, fmt.Errorf("core: directory unknown field %q", key)
		}
	}
	if d.NS == "" {
		return DirObject{}, fmt.Errorf("core: directory object missing namespace")
	}
	return d, nil
}

// IsDirObject reports whether object data looks like an encoded directory.
func IsDirObject(data []byte) bool {
	return bytes.HasPrefix(data, dirMagicLine)
}
