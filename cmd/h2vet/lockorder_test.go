package main

import "testing"

func TestLockorder(t *testing.T) {
	cases := []golden{
		{
			// Each function is locally clean (Lock + defer Unlock), so the
			// old per-function lockcheck sees nothing; the AB/BA cycle only
			// exists across the call graph.
			name: "opposite acquisition orders form a cycle",
			src: `package fake

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S) AB() {
	s.a.Lock()
	defer s.a.Unlock()
	s.lockB()
}

func (s *S) lockB() {
	s.b.Lock()
	defer s.b.Unlock()
}

func (s *S) BA() {
	s.b.Lock()
	defer s.b.Unlock()
	s.lockA()
}

func (s *S) lockA() {
	s.a.Lock()
	defer s.a.Unlock()
}
`,
			want: []string{
				"internal/fake/locks.go:13:2: lockorder: lock-order cycle between fake.S.a -> fake.S.b -> fake.S.a; acquire these mutexes in one consistent order",
			},
		},
		{
			name: "same-mutex re-entry through a callee",
			src: `package fake

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Outer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner()
}

func (s *S) inner() {
	s.mu.Lock()
	defer s.mu.Unlock()
}
`,
			want: []string{
				"internal/fake/locks.go:10:2: lockorder: mutex fake.S.mu may be re-acquired while already held (same-mutex re-entry deadlocks)",
			},
		},
		{
			name: "consistent order is clean",
			src: `package fake

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S) AB() {
	s.a.Lock()
	defer s.a.Unlock()
	s.lockB()
}

func (s *S) lockB() {
	s.b.Lock()
	defer s.b.Unlock()
}
`,
			want: nil,
		},
		{
			name: "explicit unlock closes the span before the call",
			src: `package fake

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Outer() {
	s.mu.Lock()
	v := 1
	_ = v
	s.mu.Unlock()
	s.inner()
}

func (s *S) inner() {
	s.mu.Lock()
	defer s.mu.Unlock()
}
`,
			want: nil,
		},
		{
			name: "ignore directive suppresses an intended hierarchy",
			src: `package fake

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Outer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//h2vet:ignore lockorder the two instances are ordered parent-before-child by construction
	s.inner()
}

func (s *S) inner() {
	s.mu.Lock()
	defer s.mu.Unlock()
}
`,
			want: nil,
		},
		{
			// The descriptor cache's evictor: each function is locally clean
			// and the inner mutex is only ever TryLocked under the outer one,
			// so a rule that reads TryLock as "not an acquisition" sees no
			// Stripe.mu -> Desc.mu edge and misses the inversion in flush.
			name: "successful TryLock is an acquisition",
			src: `package fake

import "sync"

type Desc struct{ mu sync.Mutex }

type Stripe struct {
	mu    sync.Mutex
	descs []*Desc
}

func (s *Stripe) evictCold() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.descs {
		if !d.mu.TryLock() {
			continue
		}
		d.mu.Unlock()
	}
}

func (d *Desc) flush(s *Stripe) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s.touch()
}

func (s *Stripe) touch() {
	s.mu.Lock()
	defer s.mu.Unlock()
}
`,
			want: []string{
				"internal/fake/locks.go:26:2: lockorder: lock-order cycle between fake.Desc.mu -> fake.Stripe.mu -> fake.Desc.mu; acquire these mutexes in one consistent order",
			},
		},
		{
			// The TryLock span ends at its Unlock, and what it guarded called
			// nothing: the later call runs under the outer mutex alone.
			name: "TryLock span closed by its Unlock",
			src: `package fake

import "sync"

type Desc struct{ mu sync.Mutex }

type Stripe struct {
	mu sync.Mutex
	d  *Desc
}

func (s *Stripe) evictCold() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d.mu.TryLock() {
		s.d.mu.Unlock()
	}
	s.d.note()
}

func (d *Desc) note() {}

func (d *Desc) flush() {
	d.mu.Lock()
	defer d.mu.Unlock()
}
`,
			want: nil,
		},
	}
	runGoldens(t, lockorderAnalyzer, "internal/fake/locks.go", nil, cases)
}
