package storemw

import (
	"context"
	"errors"

	"github.com/h2cloud/h2cloud/internal/core"
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
// It also bills reg's request table by primitive and core.KindOf of each
// key, as the cloud bills: a batch of n names is n requests, a GetRange a
// GET, a COPY counts under its destination, a miss counts, a retry does
// not (outside the retry ring it sees one call; retry.attempts the rest).
// A miss or a failed precondition is an answer: "store.<op>" counts faults.
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
// back to the parent request. A miss is the store's answer, not its
// failure, so only a fault counts as the op's error.
func (s *metricsStore) observed(ctx context.Context, op string, fn func(context.Context) error) {
	elapsed, err := vclock.Observe(ctx, fn)
	//h2vet:ignore costcheck op tracing intercepts the inner store's charges on a child tracker and re-charges the parent unchanged
	vclock.Charge(ctx, elapsed)
	s.reg.Observe(op, elapsed, fault(err))
}

// fault is err unless it is an answer: a miss or a failed precondition.
func fault(err error) error {
	if errors.Is(err, objstore.ErrNotFound) || errors.Is(err, objstore.ErrPrecondition) {
		return nil
	}
	return err
}

// Put implements objstore.Store.
func (s *metricsStore) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	var err error
	s.observed(ctx, "store.put", func(ctx context.Context) error {
		err = s.inner.Put(ctx, name, data, meta)
		return err
	})
	s.reg.AddRequests(metrics.PrimPut, core.KindOf(name), 1, int64(len(data)))
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
	s.reg.AddRequests(metrics.PrimGet, core.KindOf(name), 1, int64(len(data)))
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
	s.reg.AddRequests(metrics.PrimGet, core.KindOf(name), 1, int64(len(data)))
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
	s.reg.AddRequests(metrics.PrimHead, core.KindOf(name), 1, 0)
	return info, err
}

// Delete implements objstore.Store.
func (s *metricsStore) Delete(ctx context.Context, name string) error {
	var err error
	s.observed(ctx, "store.delete", func(ctx context.Context) error {
		err = s.inner.Delete(ctx, name)
		return err
	})
	s.reg.AddRequests(metrics.PrimDelete, core.KindOf(name), 1, 0)
	return err
}

// Copy implements objstore.Store.
func (s *metricsStore) Copy(ctx context.Context, src, dst string) error {
	var err error
	s.observed(ctx, "store.copy", func(ctx context.Context) error {
		err = s.inner.Copy(ctx, src, dst)
		return err
	})
	s.reg.AddRequests(metrics.PrimCopy, core.KindOf(dst), 1, 0)
	return err
}

// firstErr picks the representative error recorded for a batch
// observation: the first faulted slot, in input order (a miss is not one).
func firstErr[T any](results []T, errOf func(T) error) error {
	for _, r := range results {
		if err := fault(errOf(r)); err != nil {
			return err
		}
	}
	return nil
}

// billBatch bills a batch of n names of primitive p into the request
// table, item(i) giving slot i's key and payload bytes: the table takes
// one add per key kind present rather than one per name.
func (s *metricsStore) billBatch(p metrics.Primitive, n int, item func(int) (string, int)) {
	var byKind [core.NumKeyKinds]metrics.Requests
	for i := 0; i < n; i++ {
		name, bytes := item(i)
		c := &byKind[core.KindOf(name)]
		c.N++
		c.Bytes += int64(bytes)
	}
	for k, c := range byKind {
		if c.N > 0 {
			s.reg.AddRequests(p, core.KeyKind(k), c.N, c.Bytes)
		}
	}
}

// MultiGet implements objstore.Batcher.
func (s *metricsStore) MultiGet(ctx context.Context, names []string) []objstore.GetResult {
	var out []objstore.GetResult
	s.observed(ctx, "store.multiget", func(ctx context.Context) error {
		out = objstore.MultiGet(ctx, s.inner, names)
		return firstErr(out, func(r objstore.GetResult) error { return r.Err })
	})
	s.billBatch(metrics.PrimGet, len(names), func(i int) (string, int) { return names[i], len(out[i].Data) })
	return out
}

// MultiHead implements objstore.Batcher.
func (s *metricsStore) MultiHead(ctx context.Context, names []string) []objstore.HeadResult {
	var out []objstore.HeadResult
	s.observed(ctx, "store.multihead", func(ctx context.Context) error {
		out = objstore.MultiHead(ctx, s.inner, names)
		return firstErr(out, func(r objstore.HeadResult) error { return r.Err })
	})
	s.billBatch(metrics.PrimHead, len(names), func(i int) (string, int) { return names[i], 0 })
	return out
}

// MultiPut implements objstore.Batcher.
func (s *metricsStore) MultiPut(ctx context.Context, reqs []objstore.PutReq) []error {
	var out []error
	s.observed(ctx, "store.multiput", func(ctx context.Context) error {
		out = objstore.MultiPut(ctx, s.inner, reqs)
		return firstErr(out, func(err error) error { return err })
	})
	s.billBatch(metrics.PrimPut, len(reqs), func(i int) (string, int) { return reqs[i].Name, len(reqs[i].Data) })
	return out
}

// MultiDelete implements objstore.Batcher.
func (s *metricsStore) MultiDelete(ctx context.Context, names []string) []error {
	var out []error
	s.observed(ctx, "store.multidelete", func(ctx context.Context) error {
		out = objstore.MultiDelete(ctx, s.inner, names)
		return firstErr(out, func(err error) error { return err })
	})
	s.billBatch(metrics.PrimDelete, len(names), func(i int) (string, int) { return names[i], 0 })
	return out
}
