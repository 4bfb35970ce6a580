package fstest

import (
	"context"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/storemw"
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
// primitives, or any batch slot, was called on a context that does not
// descend from Context: a fresh context.Background or TODO root, a nil
// context, or one held in a field or package variable. Such a call loses
// its caller's cancellation and the virtual clock its simulated time is
// billed to. The probe is a storemw.Before hook that always passes, so
// it changes no result and no charge.
func Probe(t testing.TB, s objstore.Store) objstore.Store {
	var (
		mu    sync.Mutex
		calls int
		first string
		stack []byte
	)
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		if calls > 0 {
			t.Errorf("fstest.Probe: %d store call(s) on a context that does not descend from fstest.Context; the first, %s, from:\n%s", calls, first, stack)
		}
	})
	return storemw.Before(func(ctx context.Context, op storemw.Op, name string, _ []byte) error {
		if ctx != nil && ctx.Value(rootKey{}) != nil {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if calls++; calls == 1 {
			first, stack = string(op)+" "+name, debug.Stack()
		}
		return nil
	})(s)
}
