package objstore

import (
	"context"
	"errors"
)

// Batch API. The paper's maintenance operations (COPY of a subtree, GC of
// a namespace, anti-entropy repair) touch many independent objects at
// once; issuing the primitives one round trip at a time serializes what
// the object cloud would happily absorb concurrently. Batcher is the
// optional contract a Store may implement to accept a whole group of
// primitives in one call: a native implementation (internal/cluster)
// executes the group as one overlapped fan-out window and charges the
// vclock its makespan instead of the per-item sum, while middleware
// wrappers forward the batch downward — applying their own behaviour
// per item — without re-charging.
//
// Every batch method is positional: result slot i always corresponds to
// input slot i, and per-item failures are reported in the slot rather
// than failing the whole batch, so callers can tolerate individual
// misses (a child deleted mid-listing) without retrying the group.

// GetResult is the per-item outcome of a MultiGet.
type GetResult struct {
	Data []byte
	Info ObjectInfo
	Err  error
}

// HeadResult is the per-item outcome of a MultiHead.
type HeadResult struct {
	Info ObjectInfo
	Err  error
}

// PutReq is one object write in a MultiPut. IfMatch is its precondition
// (Holds): "" writes whatever is stored, Absent creates only, and an ETag
// replaces only the version carrying it. A slot whose precondition fails
// writes nothing and reports ErrPrecondition. ETag is an output: MultiPut
// sets it to the ETag the store sealed when the slot succeeds and clears
// it when the slot fails.
type PutReq struct {
	Name    string
	Data    []byte
	Meta    map[string]string
	IfMatch string
	ETag    string
}

// Batcher is the optional batched half of the store contract. All
// methods are safe for concurrent use and return exactly one result per
// input, in input order.
type Batcher interface {
	// MultiGet reads many objects.
	MultiGet(ctx context.Context, names []string) []GetResult
	// MultiHead reads many objects' metadata.
	MultiHead(ctx context.Context, names []string) []HeadResult
	// MultiPut stores many objects and reports, in reqs[i].ETag, the ETag
	// of each object stored — what the next Head returns as Info.ETag, as a
	// Swift or S3 PUT response carries it — or "" for a slot that failed.
	// A wrapper that forwards a sub-batch copies the field back.
	MultiPut(ctx context.Context, reqs []PutReq) []error
	// MultiDelete removes many objects; deleting a missing object yields
	// ErrNotFound in its slot.
	MultiDelete(ctx context.Context, names []string) []error
}

// MultiGet dispatches to s's native Batcher implementation when it has
// one, and otherwise falls back to issuing the singular primitive per
// item — so callers can batch unconditionally against any Store.
func MultiGet(ctx context.Context, s Store, names []string) []GetResult {
	if b, ok := s.(Batcher); ok {
		return b.MultiGet(ctx, names)
	}
	out := make([]GetResult, len(names))
	for i, name := range names {
		out[i].Data, out[i].Info, out[i].Err = s.Get(ctx, name)
	}
	return out
}

// MultiHead dispatches like MultiGet.
func MultiHead(ctx context.Context, s Store, names []string) []HeadResult {
	if b, ok := s.(Batcher); ok {
		return b.MultiHead(ctx, names)
	}
	out := make([]HeadResult, len(names))
	for i, name := range names {
		out[i].Info, out[i].Err = s.Head(ctx, name)
	}
	return out
}

// MultiPut dispatches like MultiGet. The fallback checks a slot's IfMatch
// with a Head and then puts: two requests, not one step, so a write that
// lands between them is overwritten — only a native Batcher makes the
// check atomic. Store.Put reports no ETag, so the fallback hashes each
// version that landed as Seal does.
func MultiPut(ctx context.Context, s Store, reqs []PutReq) []error {
	if b, ok := s.(Batcher); ok {
		return b.MultiPut(ctx, reqs)
	}
	out := make([]error, len(reqs))
	for i, r := range reqs {
		reqs[i].ETag = ""
		if r.IfMatch != "" {
			cur, err := s.Head(ctx, r.Name)
			if err != nil && !errors.Is(err, ErrNotFound) {
				out[i] = err
				continue
			}
			if !Holds(r.IfMatch, cur, err == nil) {
				out[i] = ErrPrecondition
				continue
			}
		}
		if out[i] = s.Put(ctx, r.Name, r.Data, r.Meta); out[i] == nil {
			reqs[i].ETag = SealedETag(r.Data, r.Meta)
		}
	}
	return out
}

// MultiDelete dispatches like MultiGet.
func MultiDelete(ctx context.Context, s Store, names []string) []error {
	if b, ok := s.(Batcher); ok {
		return b.MultiDelete(ctx, names)
	}
	out := make([]error, len(names))
	for i, name := range names {
		out[i] = s.Delete(ctx, name)
	}
	return out
}
