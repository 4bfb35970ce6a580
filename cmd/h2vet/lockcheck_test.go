package main

import "testing"

func TestLockcheck(t *testing.T) {
	cases := []golden{
		{
			name: "lock without defer caught",
			src: `package core

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) bump() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}
`,
			want: []string{
				"internal/core/src.go:11:2: lockcheck: b.mu.Lock() without defer b.mu.Unlock() in the same function; narrow the critical section into a helper with defer",
			},
		},
		{
			name: "defer pairing allowed, flavors matter",
			src: `package core

import "sync"

type box struct {
	mu sync.RWMutex
	n  int
}

func (b *box) bump() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

func (b *box) read() int {
	b.mu.RLock()
	defer b.mu.Unlock()
	return b.n
}
`,
			want: []string{
				"internal/core/src.go:17:2: lockcheck: b.mu.RLock() without defer b.mu.RUnlock() in the same function; narrow the critical section into a helper with defer",
			},
		},
		{
			name: "handler call under lock caught",
			src: `package core

import "sync"

type bus struct {
	mu sync.Mutex
	h  func(int)
}

func (b *bus) deliver(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.h(v)
}
`,
			want: []string{
				"internal/core/src.go:13:2: lockcheck: call to function value b.h while b.mu is held; invoke handlers outside the critical section",
			},
		},
		{
			name: "broadcast re-entry under lock caught",
			src: `package core

import "sync"

type peer struct {
	mu  sync.Mutex
	bus interface{ Broadcast(int) }
}

func (p *peer) relay(v int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bus.Broadcast(v)
}
`,
			want: []string{
				"internal/core/src.go:13:2: lockcheck: call to Broadcast while p.mu is held; a handler may re-enter the lock (gossip-bus deadlock shape)",
			},
		},
		{
			name: "handler call after explicit unlock span allowed",
			src: `package core

import "sync"

type bus struct {
	mu sync.Mutex
	h  func(int)
	q  []int
}

func (b *bus) deliver() {
	//h2vet:ignore lockcheck narrow pop-then-deliver span, verified by TestLockcheck
	b.mu.Lock()
	v := b.q[0]
	b.mu.Unlock()
	b.h(v)
}
`,
			want: nil,
		},
		{
			name: "local closure and injected clock exempt",
			src: `package core

import (
	"sync"
	"time"
)

type store struct {
	mu    sync.Mutex
	now   func() time.Time
	items map[string]time.Time
}

func (s *store) stampAll(keys []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	put := func(k string) { s.items[k] = s.now() }
	for _, k := range keys {
		put(k)
	}
}
`,
			want: nil,
		},
		{
			// A successful TryLock holds the mutex like a Lock does, so it
			// pairs with a defer like a Lock does; a TryLock in a loop goes
			// into a helper whose whole body holds the lock. Its span also
			// counts for rule 2.
			name: "TryLock pairs with defer like Lock",
			src: `package core

import "sync"

type bus struct {
	mu sync.Mutex
	h  func(int)
}

func (b *bus) poke(v int) {
	if !b.mu.TryLock() {
		return
	}
	b.h(v)
	b.mu.Unlock()
}

func (b *bus) tryDeliver(v int) bool {
	if !b.mu.TryLock() {
		return false
	}
	defer b.mu.Unlock()
	return v > 0
}
`,
			want: []string{
				"internal/core/src.go:11:6: lockcheck: b.mu.TryLock() without defer b.mu.Unlock() in the same function; narrow the critical section into a helper with defer",
				"internal/core/src.go:14:2: lockcheck: call to function value b.h while b.mu is held; invoke handlers outside the critical section",
			},
		},
	}
	runGoldens(t, lockcheckAnalyzer, "internal/core/src.go", nil, cases)
}
