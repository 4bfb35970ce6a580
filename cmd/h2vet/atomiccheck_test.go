package main

import "testing"

func TestAtomiccheck(t *testing.T) {
	// Both cases sit beside a test file and a driver that use the function
	// style: neither is non-test internal/ code, so neither is reported.
	const exempt = `
import "sync/atomic"

var hits int64

func bump() int64 { return atomic.AddInt64(&hits, 1) }
`
	cases := []golden{
		{
			name: "function-style calls flagged, typed atomics clean",
			src: `package fake

import "sync/atomic"

type Counter struct {
	n     int64
	typed atomic.Int64
}

func (c *Counter) Inc() {
	atomic.AddInt64(&c.n, 1)
	c.typed.Add(1)
}

func (c *Counter) Read() int64 {
	return atomic.LoadInt64(&c.n) + c.typed.Load() + c.n
}
`,
			want: []string{
				"internal/fake/impl.go:11:2: atomiccheck: function-style atomic.AddInt64 leaves the variable open to plain access; declare it as a typed atomic (atomic.Int64, atomic.Bool, ...) and use its methods",
				"internal/fake/impl.go:16:9: atomiccheck: function-style atomic.LoadInt64 leaves the variable open to plain access; declare it as a typed atomic (atomic.Int64, atomic.Bool, ...) and use its methods",
			},
		},
		{
			name: "ignore directive",
			src: `package fake

import "sync/atomic"

type Counter struct{ n int64 }

func (c *Counter) Inc() {
	//h2vet:ignore atomiccheck field layout is shared with a C header
	atomic.AddInt64(&c.n, 1)
}
`,
			want: nil,
		},
	}
	runGoldens(t, atomiccheckAnalyzer, "internal/fake/impl.go", map[string]string{
		"internal/fake/impl_test.go": "package fake\n" + exempt,
		"cmd/tool/main.go":           "package main\n" + exempt + "\nfunc main() { bump() }\n",
	}, cases)
}
