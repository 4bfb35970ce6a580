package fstest

import (
	"context"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/h2cloud/h2cloud/internal/objstore"
)

// rootKey marks the contexts that descend from Context.
type rootKey struct{}

var root = context.WithValue(context.Background(), rootKey{}, true)

// Context returns the suite's root context. Every operation the suite
// issues runs on it, and a caller of Run or RunDifferential creates its
// accounts and starts its maintenance loops on it, so each store call a
// probed filesystem makes carries it: a derived context (WithCancel,
// WithTimeout, vclock.With, WithoutCancel) keeps its values.
func Context() context.Context { return root }

// Probe wraps a store so that t fails at cleanup if any of its ten
// primitives was called on a context that does not descend from Context:
// a fresh context.Background or TODO root, a nil context, or one held in
// a field or package variable. Such a call loses its caller's
// cancellation and the virtual clock its simulated time is billed to.
// The probe forwards every call unchanged, so it changes no result and
// no charge.
func Probe(t testing.TB, s objstore.Store) objstore.Store {
	p := &probe{Store: s}
	t.Cleanup(func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.calls > 0 {
			t.Errorf("fstest.Probe: %d store call(s) on a context that does not descend from fstest.Context; the first, %s, from:\n%s", p.calls, p.first, p.stack)
		}
	})
	return p
}

type probe struct {
	objstore.Store

	mu    sync.Mutex
	calls int
	first string
	stack []byte
}

// check records a call whose context lost the suite's root.
func (p *probe) check(ctx context.Context, op, name string) {
	if ctx != nil && ctx.Value(rootKey{}) != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.calls++; p.calls == 1 {
		p.first, p.stack = op+" "+name, debug.Stack()
	}
}

func (p *probe) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	p.check(ctx, "Put", name)
	return p.Store.Put(ctx, name, data, meta)
}

func (p *probe) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	p.check(ctx, "Get", name)
	return p.Store.Get(ctx, name)
}

func (p *probe) GetRange(ctx context.Context, name string, offset, length int64) ([]byte, objstore.ObjectInfo, error) {
	p.check(ctx, "GetRange", name)
	return p.Store.GetRange(ctx, name, offset, length)
}

func (p *probe) Head(ctx context.Context, name string) (objstore.ObjectInfo, error) {
	p.check(ctx, "Head", name)
	return p.Store.Head(ctx, name)
}

func (p *probe) Delete(ctx context.Context, name string) error {
	p.check(ctx, "Delete", name)
	return p.Store.Delete(ctx, name)
}

func (p *probe) Copy(ctx context.Context, src, dst string) error {
	p.check(ctx, "Copy", src)
	return p.Store.Copy(ctx, src, dst)
}

func (p *probe) MultiGet(ctx context.Context, names []string) []objstore.GetResult {
	p.check(ctx, "MultiGet", "")
	return objstore.MultiGet(ctx, p.Store, names)
}

func (p *probe) MultiHead(ctx context.Context, names []string) []objstore.HeadResult {
	p.check(ctx, "MultiHead", "")
	return objstore.MultiHead(ctx, p.Store, names)
}

func (p *probe) MultiPut(ctx context.Context, reqs []objstore.PutReq) []error {
	p.check(ctx, "MultiPut", "")
	return objstore.MultiPut(ctx, p.Store, reqs)
}

func (p *probe) MultiDelete(ctx context.Context, names []string) []error {
	p.check(ctx, "MultiDelete", "")
	return objstore.MultiDelete(ctx, p.Store, names)
}
