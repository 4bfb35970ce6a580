package main

import "testing"

func TestPoolcheck(t *testing.T) {
	cases := []golden{
		{
			// The repo's blessed codec idiom: Get, alias through an
			// append-like call, clear, truncate back into the scratch, Put,
			// return the unrelated output buffer.
			name: "codec idiom clean",
			src: `package fake

import "sync"

var scratch = sync.Pool{New: func() any { s := make([]string, 0, 8); return &s }}

func appendAll(dst []string) []string { return append(dst, "x") }

func Encode(buf []byte) []byte {
	sp := scratch.Get().(*[]string)
	names := appendAll((*sp)[:0])
	for _, n := range names {
		buf = append(buf, n...)
	}
	clear(names)
	*sp = names[:0]
	scratch.Put(sp)
	return buf
}
`,
			want: nil,
		},
		{
			// A deferred Put covers every path, including early error
			// returns; pointer-free scratch needs no clear.
			name: "deferred put clean",
			src: `package fake

import "sync"

var pool = sync.Pool{New: func() any { return new([64]int) }}

func Sum(fail bool) (int, error) {
	buf := pool.Get().(*[64]int)
	defer pool.Put(buf)
	if fail {
		return 0, errFail
	}
	return buf[0], nil
}

var errFail = error(nil)
`,
			want: nil,
		},
		{
			// A success return on one branch misses the Put: the scratch
			// leaks and the pool degrades to allocation.
			name: "missing put on success path",
			src: `package fake

import "sync"

var pool = sync.Pool{New: func() any { return new([64]int) }}

func Sum(skip bool) int {
	buf := pool.Get().(*[64]int)
	if skip {
		return 0
	}
	n := buf[0]
	pool.Put(buf)
	return n
}
`,
			want: []string{
				"internal/fake/impl.go:8:9: poolcheck: scratch from pool.Get is not returned on every non-error path: the path exiting at internal/fake/impl.go:10 misses pool.Put (defer the Put or cover every return)",
			},
		},
		{
			// Error-path returns are exempt: losing a pool entry on the
			// error path is harmless, and forcing a Put there costs clarity.
			name: "error path exempt",
			src: `package fake

import (
	"errors"
	"sync"
)

var pool = sync.Pool{New: func() any { return new([64]int) }}

func Sum(fail bool) (int, error) {
	buf := pool.Get().(*[64]int)
	if fail {
		return 0, errors.New("boom")
	}
	n := buf[0]
	pool.Put(buf)
	return n, nil
}
`,
			want: nil,
		},
		{
			// Returning the scratch (or an alias of it) hands pooled memory
			// to the caller while the pool is free to recycle it.
			name: "escape via return",
			src: `package fake

import "sync"

var pool = sync.Pool{New: func() any { s := make([]byte, 0, 64); return &s }}

func Bytes() []byte {
	sp := pool.Get().(*[]byte)
	out := (*sp)[:0]
	out = append(out, 'x')
	pool.Put(sp)
	return out
}
`,
			want: []string{
				"internal/fake/impl.go:12:2: poolcheck: pooled scratch from pool.Get escapes via return; the pool may recycle it under the caller (copy it out, or do not pool it)",
				"internal/fake/impl.go:12:9: poolcheck: pooled scratch out used after pool.Put at internal/fake/impl.go:11 returned it; the pool may already have handed it to another goroutine",
			},
		},
		{
			// Storing an alias into a field outlives the frame.
			name: "escape via field store",
			src: `package fake

import "sync"

var pool = sync.Pool{New: func() any { return new([64]int) }}

type Cache struct{ last *[64]int }

func (c *Cache) Fill() {
	buf := pool.Get().(*[64]int)
	c.last = buf
	pool.Put(buf)
}
`,
			want: []string{
				"internal/fake/impl.go:11:2: poolcheck: pooled scratch from pool.Get escapes via store to field c.last; the reference outlives the function while the pool recycles the memory",
			},
		},
		{
			// A goroutine capturing the scratch races against the pool.
			name: "escape via goroutine",
			src: `package fake

import "sync"

var pool = sync.Pool{New: func() any { return new([64]int) }}

func Spawn(done chan struct{}) {
	buf := pool.Get().(*[64]int)
	go func() {
		buf[0] = 1
		close(done)
	}()
	pool.Put(buf)
}
`,
			want: []string{
				"internal/fake/impl.go:9:2: poolcheck: pooled scratch from pool.Get is handed to a goroutine; the pool may recycle it concurrently (copy, or let the goroutine own its own Get/Put)",
			},
		},
		{
			// Pointer-holding scratch pooled dirty pins every reference it
			// accumulated against the GC.
			name: "missing clear for pointer scratch",
			src: `package fake

import "sync"

var pool = sync.Pool{New: func() any { s := make([]string, 0, 8); return &s }}

func Collect(in []string) int {
	sp := pool.Get().(*[]string)
	names := append((*sp)[:0], in...)
	n := len(names)
	*sp = names[:0]
	pool.Put(sp)
	return n
}
`,
			want: []string{
				"internal/fake/impl.go:8:8: poolcheck: pooled *[]string holds pointers; clear it (or call Reset) between pool.Get and Put so the pool cannot pin references for the GC",
			},
		},
		{
			// Returning scratch to a different pool corrupts both pools.
			name: "cross-pool put",
			src: `package fake

import "sync"

var small = sync.Pool{New: func() any { return new([8]int) }}
var big = sync.Pool{New: func() any { return new([8]int) }}

func Mix() {
	buf := small.Get().(*[8]int)
	big.Put(buf)
}
`,
			want: []string{
				"internal/fake/impl.go:9:9: poolcheck: scratch from small.Get is never returned with small.Put; the pool degrades to plain allocation (defer the Put at the Get site)",
				"internal/fake/impl.go:10:2: poolcheck: scratch from small.Get is returned to a different pool big; cross-pool Put corrupts both pools' size classes",
			},
		},
		{
			// A Get whose result is never bound cannot be audited.
			name: "unbound get",
			src: `package fake

import "sync"

var pool = sync.Pool{New: func() any { return new([8]int) }}

func Peek() int {
	return pool.Get().(*[8]int)[0]
}
`,
			want: []string{
				"internal/fake/impl.go:8:9: poolcheck: sync.Pool Get result is not bound to a variable; bind it so the matching Put (and the escape contract) is checkable",
			},
		},
		{
			// An ignore directive documents a deliberate ownership transfer.
			name: "ignore directive",
			src: `package fake

import "sync"

var pool = sync.Pool{New: func() any { return new([8]int) }}

func Handoff() *[8]int {
	buf := pool.Get().(*[8]int)
	//h2vet:ignore poolcheck ownership transfers to the caller, which Puts
	return buf
}
`,
			want: nil,
		},
	}
	runGoldens(t, poolcheckAnalyzer, "internal/fake/impl.go", nil, cases)
}
