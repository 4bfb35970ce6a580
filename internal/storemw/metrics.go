package storemw

import (
	"context"

	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// Metrics returns the op-tracing Layer: every primitive and batch that
// crosses it is counted and its simulated service time recorded in reg
// under "store.<op>". The ring intercepts the inner store's charges on a
// child tracker so the observation covers exactly the wrapped call —
// including retry backoff when stacked outside the retry ring — and then
// re-charges the parent, leaving the request's total unchanged.
func Metrics(reg *metrics.Registry) Layer {
	return func(inner objstore.Store) objstore.Store {
		return &metricsStore{inner: inner, reg: reg}
	}
}

// metricsStore is the op-tracing ring.
type metricsStore struct {
	inner objstore.Store
	reg   *metrics.Registry
}

var (
	_ Wrapper          = (*metricsStore)(nil)
	_ objstore.Batcher = (*metricsStore)(nil)
)

// Unwrap implements Wrapper.
func (s *metricsStore) Unwrap() objstore.Store { return s.inner }

// observed runs fn under vclock.Observe, records the intercepted virtual
// duration under op (a constant "store.<op>" label), and hands the cost
// back to the parent request.
func (s *metricsStore) observed(ctx context.Context, op string, fn func(context.Context) error) {
	elapsed, err := vclock.Observe(ctx, fn)
	//h2vet:ignore costcheck op tracing intercepts the inner store's charges on a child tracker and re-charges the parent unchanged
	vclock.Charge(ctx, elapsed)
	s.reg.Observe(op, elapsed, err)
}

// Put implements objstore.Store.
func (s *metricsStore) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	var err error
	s.observed(ctx, "store.put", func(ctx context.Context) error {
		err = s.inner.Put(ctx, name, data, meta)
		return err
	})
	return err
}

// Get implements objstore.Store.
func (s *metricsStore) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	var data []byte
	var info objstore.ObjectInfo
	var err error
	s.observed(ctx, "store.get", func(ctx context.Context) error {
		data, info, err = s.inner.Get(ctx, name)
		return err
	})
	return data, info, err
}

// GetRange implements objstore.Store.
func (s *metricsStore) GetRange(ctx context.Context, name string, offset, length int64) ([]byte, objstore.ObjectInfo, error) {
	var data []byte
	var info objstore.ObjectInfo
	var err error
	s.observed(ctx, "store.getrange", func(ctx context.Context) error {
		data, info, err = s.inner.GetRange(ctx, name, offset, length)
		return err
	})
	return data, info, err
}

// Head implements objstore.Store.
func (s *metricsStore) Head(ctx context.Context, name string) (objstore.ObjectInfo, error) {
	var info objstore.ObjectInfo
	var err error
	s.observed(ctx, "store.head", func(ctx context.Context) error {
		info, err = s.inner.Head(ctx, name)
		return err
	})
	return info, err
}

// Delete implements objstore.Store.
func (s *metricsStore) Delete(ctx context.Context, name string) error {
	var err error
	s.observed(ctx, "store.delete", func(ctx context.Context) error {
		err = s.inner.Delete(ctx, name)
		return err
	})
	return err
}

// Copy implements objstore.Store.
func (s *metricsStore) Copy(ctx context.Context, src, dst string) error {
	var err error
	s.observed(ctx, "store.copy", func(ctx context.Context) error {
		err = s.inner.Copy(ctx, src, dst)
		return err
	})
	return err
}

// firstErr picks the representative error recorded for a batch
// observation: the first failed slot, in input order.
func firstErr[T any](results []T, errOf func(T) error) error {
	for _, r := range results {
		if err := errOf(r); err != nil {
			return err
		}
	}
	return nil
}

// MultiGet implements objstore.Batcher.
func (s *metricsStore) MultiGet(ctx context.Context, names []string) []objstore.GetResult {
	var out []objstore.GetResult
	s.observed(ctx, "store.multiget", func(ctx context.Context) error {
		out = objstore.MultiGet(ctx, s.inner, names)
		return firstErr(out, func(r objstore.GetResult) error { return r.Err })
	})
	s.reg.Inc("store.multiget.objects", int64(len(names)))
	return out
}

// MultiHead implements objstore.Batcher.
func (s *metricsStore) MultiHead(ctx context.Context, names []string) []objstore.HeadResult {
	var out []objstore.HeadResult
	s.observed(ctx, "store.multihead", func(ctx context.Context) error {
		out = objstore.MultiHead(ctx, s.inner, names)
		return firstErr(out, func(r objstore.HeadResult) error { return r.Err })
	})
	s.reg.Inc("store.multihead.objects", int64(len(names)))
	return out
}

// MultiPut implements objstore.Batcher.
func (s *metricsStore) MultiPut(ctx context.Context, reqs []objstore.PutReq) []error {
	var out []error
	s.observed(ctx, "store.multiput", func(ctx context.Context) error {
		out = objstore.MultiPut(ctx, s.inner, reqs)
		return firstErr(out, func(err error) error { return err })
	})
	s.reg.Inc("store.multiput.objects", int64(len(reqs)))
	return out
}

// MultiDelete implements objstore.Batcher.
func (s *metricsStore) MultiDelete(ctx context.Context, names []string) []error {
	var out []error
	s.observed(ctx, "store.multidelete", func(ctx context.Context) error {
		out = objstore.MultiDelete(ctx, s.inner, names)
		return firstErr(out, func(err error) error { return err })
	})
	s.reg.Inc("store.multidelete.objects", int64(len(names)))
	return out
}
