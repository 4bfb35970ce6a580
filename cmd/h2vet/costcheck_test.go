package main

import "testing"

// miniObjstore and miniVclock stand in for the real packages in
// costcheck goldens: costcheck finds Store and Charge by package path,
// not by identity with the real module.
const miniObjstore = `package objstore

type Store interface {
	Put(name string, data []byte) error
	Get(name string) ([]byte, error)
}
`

const miniVclock = `package vclock

func Charge(d int) {}
`

func TestCostcheck(t *testing.T) {
	cases := []golden{
		{
			// The old AST-only pass had no concept of "this method never
			// charges": Leaf.Get is a silent cost-model hole only visible
			// through the call graph.
			name: "seeded violations caught",
			src: `package fake

import (
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

type Leaf struct{}

func (l *Leaf) Put(name string, data []byte) error {
	vclock.Charge(1)
	return nil
}

func (l *Leaf) Get(name string) ([]byte, error) { return nil, nil }

type Wrap struct{ inner objstore.Store }

func (w *Wrap) Put(name string, data []byte) error {
	vclock.Charge(1)
	return w.inner.Put(name, data)
}

func (w *Wrap) Get(name string) ([]byte, error) { return w.inner.Get(name) }
`,
			want: []string{
				"internal/fake/impl.go:15:1: costcheck: Store primitive fake.Leaf.Get never reaches vclock.Charge; its simulated service time is zero (charge the cost model or delegate to a charging Store)",
				"internal/fake/impl.go:20:2: costcheck: charge reachable from delegating Store wrapper method(s) fake.Wrap.Put; the wrapped Store already charges, so this double-counts unless intended (//h2vet:ignore costcheck <reason>)",
			},
		},
		{
			name: "charge through a helper counts",
			src: `package fake

import "github.com/h2cloud/h2cloud/internal/vclock"

type Leaf struct{}

func (l *Leaf) bill() { vclock.Charge(1) }

func (l *Leaf) Put(name string, data []byte) error {
	l.bill()
	return nil
}

func (l *Leaf) Get(name string) ([]byte, error) {
	l.bill()
	return nil, nil
}
`,
			want: nil,
		},
		{
			name: "pure delegation is not a double charge",
			src: `package fake

import "github.com/h2cloud/h2cloud/internal/objstore"

type Wrap struct{ inner objstore.Store }

func (w *Wrap) Put(name string, data []byte) error {
	return w.inner.Put(name, data)
}

func (w *Wrap) Get(name string) ([]byte, error) { return w.inner.Get(name) }
`,
			want: nil,
		},
		{
			name: "ignore directive suppresses an intended extra charge",
			src: `package fake

import (
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

type Wrap struct{ inner objstore.Store }

func (w *Wrap) Put(name string, data []byte) error {
	//h2vet:ignore costcheck models injected latency on top of the wrapped store
	vclock.Charge(1)
	return w.inner.Put(name, data)
}

func (w *Wrap) Get(name string) ([]byte, error) { return w.inner.Get(name) }
`,
			want: nil,
		},
	}
	runGoldens(t, costcheckAnalyzer, "internal/fake/impl.go", map[string]string{
		"internal/objstore/objstore.go": miniObjstore,
		"internal/vclock/vclock.go":     miniVclock,
	}, cases)
}

// miniObjstoreBatch extends the mini store with the optional Batcher
// interface and the sequential dispatch helper, mirroring the real
// package's shape.
const miniObjstoreBatch = `package objstore

type Store interface {
	Put(name string, data []byte) error
	Get(name string) ([]byte, error)
}

type Batcher interface {
	MultiGet(names []string) []error
}

func MultiGet(s Store, names []string) []error {
	if b, ok := s.(Batcher); ok {
		return b.MultiGet(names)
	}
	out := make([]error, len(names))
	for i, name := range names {
		_, out[i] = s.Get(name)
	}
	return out
}
`

func TestCostcheckBatcher(t *testing.T) {
	cases := []golden{
		{
			// A native batch implementation owns the overlapped fanout
			// window; one that never charges is a silent cost-model hole
			// exactly like an uncharged singular primitive.
			name: "native batch must charge",
			src: `package fake

import "github.com/h2cloud/h2cloud/internal/vclock"

type Native struct{}

func (n *Native) Put(name string, data []byte) error {
	vclock.Charge(1)
	return nil
}

func (n *Native) Get(name string) ([]byte, error) {
	vclock.Charge(1)
	return nil, nil
}

func (n *Native) MultiGet(names []string) []error { return make([]error, len(names)) }
`,
			want: []string{
				"internal/fake/impl.go:17:1: costcheck: Batcher primitive fake.Native.MultiGet never reaches vclock.Charge; its simulated service time is zero (charge the cost model or delegate to a charging Store)",
			},
		},
		{
			// A wrapper forwarding batches through the dispatch helper must
			// not re-charge: the inner store already accounted the window.
			name: "forwarding wrapper must not re-charge",
			src: `package fake

import (
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

type Wrap struct{ inner objstore.Store }

func (w *Wrap) Put(name string, data []byte) error { return w.inner.Put(name, data) }

func (w *Wrap) Get(name string) ([]byte, error) { return w.inner.Get(name) }

func (w *Wrap) MultiGet(names []string) []error {
	vclock.Charge(1)
	return objstore.MultiGet(w.inner, names)
}
`,
			want: []string{
				"internal/fake/impl.go:15:2: costcheck: charge reachable from delegating Store wrapper method(s) fake.Wrap.MultiGet; the wrapped Store already charges, so this double-counts unless intended (//h2vet:ignore costcheck <reason>)",
			},
		},
		{
			// Charging batch + clean forwarding + a singular fallback inside
			// the dispatch helper: the canonical shapes are all clean.
			name: "native charge and pure forwarding are clean",
			src: `package fake

import (
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

type Native struct{}

func (n *Native) Put(name string, data []byte) error {
	vclock.Charge(1)
	return nil
}

func (n *Native) Get(name string) ([]byte, error) {
	vclock.Charge(1)
	return nil, nil
}

func (n *Native) MultiGet(names []string) []error {
	vclock.Charge(len(names))
	return make([]error, len(names))
}

type Wrap struct{ inner objstore.Store }

func (w *Wrap) Put(name string, data []byte) error { return w.inner.Put(name, data) }

func (w *Wrap) Get(name string) ([]byte, error) { return w.inner.Get(name) }

func (w *Wrap) MultiGet(names []string) []error { return objstore.MultiGet(w.inner, names) }
`,
			want: nil,
		},
		{
			name: "ignore directive keeps an intended batch surcharge",
			src: `package fake

import (
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

type Wrap struct{ inner objstore.Store }

func (w *Wrap) Put(name string, data []byte) error { return w.inner.Put(name, data) }

func (w *Wrap) Get(name string) ([]byte, error) { return w.inner.Get(name) }

func (w *Wrap) MultiGet(names []string) []error {
	//h2vet:ignore costcheck models a per-batch dispatch latency on top of the inner window
	vclock.Charge(1)
	return objstore.MultiGet(w.inner, names)
}
`,
			want: nil,
		},
	}
	runGoldens(t, costcheckAnalyzer, "internal/fake/impl.go", map[string]string{
		"internal/objstore/objstore.go": miniObjstoreBatch,
		"internal/vclock/vclock.go":     miniVclock,
	}, cases)
}
