package storemw

import (
	"context"

	"github.com/h2cloud/h2cloud/internal/objstore"
)

// Op names one store primitive: what a Hook is told, and what the retry
// ring hashes into its backoff.
type Op string

// The store primitives a Hook sees. A batch slot passes its singular op.
const (
	OpPut      Op = "put"
	OpGet      Op = "get"
	OpGetRange Op = "getrange"
	OpHead     Op = "head"
	OpDelete   Op = "delete"
	OpCopy     Op = "copy"
)

// Hook runs before one store call: name is the object the call names (a
// Copy's source) and data a put's payload. A non-nil error fails the call
// without reaching the inner store.
type Hook func(ctx context.Context, op Op, name string, data []byte) error

// Before returns the pre-call Layer: hook runs once per singular call and
// once per batch slot, in slot order. A call or slot whose hook fails
// reports the hook's error and never reaches the inner store (a failed
// MultiPut slot reports no ETag); the slots that pass go on as one batch,
// so a native Batcher still charges one overlapped window. Fault
// injection, the context probe and the tests' crash and request-log
// stores are each one hook on this ring.
func Before(hook Hook) Layer {
	return func(inner objstore.Store) objstore.Store {
		return &beforeStore{inner: inner, hook: hook}
	}
}

// beforeStore is the pre-call ring.
type beforeStore struct {
	inner objstore.Store
	hook  Hook
}

var (
	_ Wrapper          = (*beforeStore)(nil)
	_ objstore.Batcher = (*beforeStore)(nil)
)

// Unwrap implements Wrapper.
func (s *beforeStore) Unwrap() objstore.Store { return s.inner }

// Put implements objstore.Store.
func (s *beforeStore) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	if err := s.hook(ctx, OpPut, name, data); err != nil {
		return err
	}
	return s.inner.Put(ctx, name, data, meta)
}

// Get implements objstore.Store.
func (s *beforeStore) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	if err := s.hook(ctx, OpGet, name, nil); err != nil {
		return nil, objstore.ObjectInfo{}, err
	}
	return s.inner.Get(ctx, name)
}

// GetRange implements objstore.Store.
func (s *beforeStore) GetRange(ctx context.Context, name string, offset, length int64) ([]byte, objstore.ObjectInfo, error) {
	if err := s.hook(ctx, OpGetRange, name, nil); err != nil {
		return nil, objstore.ObjectInfo{}, err
	}
	return s.inner.GetRange(ctx, name, offset, length)
}

// Head implements objstore.Store.
func (s *beforeStore) Head(ctx context.Context, name string) (objstore.ObjectInfo, error) {
	if err := s.hook(ctx, OpHead, name, nil); err != nil {
		return objstore.ObjectInfo{}, err
	}
	return s.inner.Head(ctx, name)
}

// Delete implements objstore.Store.
func (s *beforeStore) Delete(ctx context.Context, name string) error {
	if err := s.hook(ctx, OpDelete, name, nil); err != nil {
		return err
	}
	return s.inner.Delete(ctx, name)
}

// Copy implements objstore.Store. The hook sees the source.
func (s *beforeStore) Copy(ctx context.Context, src, dst string) error {
	if err := s.hook(ctx, OpCopy, src, nil); err != nil {
		return err
	}
	return s.inner.Copy(ctx, src, dst)
}

// hookBatch runs the hook on every slot of a batch, in slot order. A
// failed slot takes fail's result, which may also clear the caller's
// item; the slots that pass are forwarded through call as one batch, and
// copyBack (nil for none) copies a forwarded slot's output field back
// into the caller's item — the only one the Batcher contract names is
// PutReq.ETag.
func hookBatch[In, Out any](ctx context.Context, s *beforeStore, op Op, items []In, slot func(In) (string, []byte),
	call func([]In) []Out, fail func(*In, error) Out, copyBack func(dst *In, src In)) []Out {
	out := make([]Out, len(items))
	fwd := make([]In, 0, len(items))
	slots := make([]int, 0, len(items))
	for i, it := range items {
		name, data := slot(it)
		if err := s.hook(ctx, op, name, data); err != nil {
			out[i] = fail(&items[i], err)
			continue
		}
		fwd = append(fwd, it)
		slots = append(slots, i)
	}
	for j, r := range call(fwd) {
		out[slots[j]] = r
		if copyBack != nil {
			copyBack(&items[slots[j]], fwd[j])
		}
	}
	return out
}

// named is the slot of a batch over bare names.
func named(name string) (string, []byte) { return name, nil }

// MultiGet implements objstore.Batcher.
func (s *beforeStore) MultiGet(ctx context.Context, names []string) []objstore.GetResult {
	return hookBatch(ctx, s, OpGet, names, named, func(sub []string) []objstore.GetResult {
		return objstore.MultiGet(ctx, s.inner, sub)
	}, func(_ *string, err error) objstore.GetResult { return objstore.GetResult{Err: err} }, nil)
}

// MultiHead implements objstore.Batcher.
func (s *beforeStore) MultiHead(ctx context.Context, names []string) []objstore.HeadResult {
	return hookBatch(ctx, s, OpHead, names, named, func(sub []string) []objstore.HeadResult {
		return objstore.MultiHead(ctx, s.inner, sub)
	}, func(_ *string, err error) objstore.HeadResult { return objstore.HeadResult{Err: err} }, nil)
}

// MultiPut implements objstore.Batcher.
func (s *beforeStore) MultiPut(ctx context.Context, reqs []objstore.PutReq) []error {
	return hookBatch(ctx, s, OpPut, reqs, func(r objstore.PutReq) (string, []byte) { return r.Name, r.Data },
		func(sub []objstore.PutReq) []error { return objstore.MultiPut(ctx, s.inner, sub) },
		func(r *objstore.PutReq, err error) error { r.ETag = ""; return err },
		func(dst *objstore.PutReq, src objstore.PutReq) { dst.ETag = src.ETag })
}

// MultiDelete implements objstore.Batcher.
func (s *beforeStore) MultiDelete(ctx context.Context, names []string) []error {
	return hookBatch(ctx, s, OpDelete, names, named, func(sub []string) []error {
		return objstore.MultiDelete(ctx, s.inner, sub)
	}, func(_ *string, err error) error { return err }, nil)
}
