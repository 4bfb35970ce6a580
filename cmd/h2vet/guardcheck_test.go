package main

import "testing"

// TestGuardcheck seeds the exact defect the rule exists for: a struct
// whose field is locked at most sites, and one goroutine-reachable
// access that skips the lock.
func TestGuardcheck(t *testing.T) {
	cases := []golden{
		{
			// The required self-test: a deliberately unguarded access in a
			// go-launched literal, against an inferred guard.
			name: "seeded unguarded access in go literal",
			src: `package fake

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *Counter) Dec() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
}

func (c *Counter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = 0
}

func Race(c *Counter) {
	go func() {
		c.n = 42
	}()
}
`,
			want: []string{
				"internal/fake/impl.go:30:5: guardcheck: field fake.Counter.n accessed without its guard fake.Counter.mu (inferred: held at 3 of 4 sites) on a path reachable from the goroutine launched at internal/fake/impl.go:29",
			},
		},
		{
			name: "goroutine locking before access is clean",
			src: `package fake

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *Counter) Dec() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
}

func Race(c *Counter) {
	go func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n = 42
	}()
}
`,
			want: nil,
		},
		{
			// addLocked never locks but inherits its callers' lockset; the
			// `go c.addLocked()` edge empties the entry meet and makes the
			// access goroutine-reachable without the guard.
			name: "lockset propagation through Locked helper",
			src: `package fake

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *Counter) Dec() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
}

func (c *Counter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = 0
}

func (c *Counter) addLocked(d int) {
	c.n += d
}

func (c *Counter) Add(d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(d)
}

func Bad(c *Counter) {
	go c.addLocked(2)
}
`,
			want: []string{
				"internal/fake/impl.go:29:4: guardcheck: field fake.Counter.n accessed without its guard fake.Counter.mu (inferred: held at 3 of 4 sites) on a path reachable from the goroutine launched at internal/fake/impl.go:39",
			},
		},
		{
			// With the go statement removed, the same helper is only ever
			// entered with the lock held: no finding, and the helper's own
			// site counts as guarded.
			name: "Locked helper called only under the lock is clean",
			src: `package fake

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *Counter) addLocked(d int) {
	c.n += d
}

func (c *Counter) Add(d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(d)
}

func Spawn(c *Counter) {
	go c.Add(1)
}
`,
			want: nil,
		},
		{
			// Too few locked sites for inference, but the annotation seeds
			// the guard directly.
			name: "guardedby annotation overrides weak inference",
			src: `package fake

import "sync"

type Reg struct {
	mu sync.Mutex
	//h2vet:guardedby mu
	v int
}

func (r *Reg) Set(v int) {
	r.v = v
}

func Run(r *Reg) {
	go r.Set(1)
}
`,
			want: []string{
				"internal/fake/impl.go:12:4: guardcheck: field fake.Reg.v accessed without its guard fake.Reg.mu (//h2vet:guardedby annotation) on a path reachable from the goroutine launched at internal/fake/impl.go:16",
			},
		},
		{
			name: "malformed guardedby annotation reported",
			src: `package fake

import "sync"

type Reg struct {
	mu sync.Mutex
	//h2vet:guardedby lock
	v int
}

func (r *Reg) Set(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.v = v
}
`,
			want: []string{
				"internal/fake/impl.go:8:2: guardcheck: //h2vet:guardedby lock: the declaring struct has no sync.Mutex/RWMutex field named \"lock\"",
			},
		},
		{
			name: "ignore directive suppresses the finding",
			src: `package fake

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *Counter) Dec() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
}

func (c *Counter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = 0
}

func Race(c *Counter) {
	go func() {
		//h2vet:ignore guardcheck racy by design, test only
		c.n = 42
	}()
}
`,
			want: nil,
		},
		{
			// A conditional early unlock-and-return must not truncate the
			// span: the fallthrough path still holds the lock.
			name: "early-exit unlock keeps the fallthrough span",
			src: `package fake

import "sync"

type Counter struct {
	mu  sync.Mutex
	n   int
	bad bool
}

func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *Counter) Dec() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
}

func (c *Counter) Bump() int {
	c.mu.Lock()
	if c.bad {
		c.mu.Unlock()
		return -1
	}
	c.n++
	v := c.n
	c.mu.Unlock()
	return v
}

func Run(c *Counter) {
	go c.Bump()
}
`,
			want: nil,
		},
	}
	runGoldens(t, guardcheckAnalyzer, "internal/fake/impl.go", nil, cases)
}
