package storemw

import (
	"context"
	"hash/fnv"
	"strconv"
	"time"

	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// The retry ring's tuning. Transient store errors (objstore.Transient:
// node down, no quorum) are retried up to maxAttempts total attempts per
// primitive with capped exponential backoff: baseBackoff before the
// first retry, doubling to maxBackoff. The backoff is charged to the
// request's virtual clock — the simulator never sleeps — so
// retry-inflated service time shows up in measured figures exactly like
// extra round trips would. Permanent errors (ErrNotFound, injected test
// faults) surface immediately. retrySeed drives the deterministic jitter
// hash, so two retry rings charge identical backoff sequences.
const (
	maxAttempts = 4
	baseBackoff = 5 * time.Millisecond
	maxBackoff  = 80 * time.Millisecond
	retrySeed   = 1
)

// backoff returns the jittered wait before retry number attempt (0-based)
// of one primitive: min(baseBackoff<<attempt, maxBackoff) scaled by a
// deterministic 0.5×–1.5× fraction hashed from (seed, op, name,
// attempt). Hash-derived jitter keeps same-seed runs byte-identical while
// still decorrelating concurrent retriers, which call-order PRNG draws
// would not.
func backoff(op Op, name string, attempt int) time.Duration {
	d := min(baseBackoff<<attempt, maxBackoff)
	h := fnv.New64a()
	_, _ = h.Write([]byte(strconv.FormatInt(retrySeed, 10)))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(op))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(name))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(strconv.Itoa(attempt)))
	frac := 0.5 + float64(h.Sum64()>>11)/float64(1<<53)
	return time.Duration(frac * float64(d))
}

// Retry returns the retry Layer: transient failures from the inner store
// are re-issued with backoff charged to the virtual clock and counters
// reported to reg (nil-safe). Every h2fs middleware stacks it under the
// Metrics ring.
func Retry(reg *metrics.Registry) Layer {
	return func(inner objstore.Store) objstore.Store {
		return &retryStore{inner: inner, reg: reg}
	}
}

// retryStore is the retry ring.
type retryStore struct {
	inner objstore.Store
	reg   *metrics.Registry // nil-safe counter sink
}

var (
	_ Wrapper          = (*retryStore)(nil)
	_ objstore.Batcher = (*retryStore)(nil)
)

// Unwrap implements Wrapper.
func (s *retryStore) Unwrap() objstore.Store { return s.inner }

// again reports whether a primitive that returned err on try number
// attempt (0-based) goes out again, and charges the backoff before it
// does. Only a transient error is retried, so a healthy call makes one
// trip through the ring and builds no closure.
func (s *retryStore) again(ctx context.Context, op Op, name string, err error, attempt int) bool {
	if err == nil || !objstore.Transient(err) {
		return false
	}
	if attempt == maxAttempts-1 || ctx.Err() != nil {
		s.reg.Inc("retry.exhausted", 1)
		return false
	}
	s.reg.Inc("retry.attempts", 1)
	//h2vet:ignore costcheck backoff between attempts is real service time charged on top of the inner store's per-attempt cost
	vclock.Charge(ctx, backoff(op, name, attempt))
	return true
}

// Put implements objstore.Store.
func (s *retryStore) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	err := s.inner.Put(ctx, name, data, meta)
	for attempt := 0; s.again(ctx, OpPut, name, err, attempt); attempt++ {
		err = s.inner.Put(ctx, name, data, meta)
	}
	return err
}

// Get implements objstore.Store.
func (s *retryStore) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	data, info, err := s.inner.Get(ctx, name)
	for attempt := 0; s.again(ctx, OpGet, name, err, attempt); attempt++ {
		data, info, err = s.inner.Get(ctx, name)
	}
	return data, info, err
}

// GetRange implements objstore.Store.
func (s *retryStore) GetRange(ctx context.Context, name string, offset, length int64) ([]byte, objstore.ObjectInfo, error) {
	data, info, err := s.inner.GetRange(ctx, name, offset, length)
	for attempt := 0; s.again(ctx, OpGetRange, name, err, attempt); attempt++ {
		data, info, err = s.inner.GetRange(ctx, name, offset, length)
	}
	return data, info, err
}

// Head implements objstore.Store.
func (s *retryStore) Head(ctx context.Context, name string) (objstore.ObjectInfo, error) {
	info, err := s.inner.Head(ctx, name)
	for attempt := 0; s.again(ctx, OpHead, name, err, attempt); attempt++ {
		info, err = s.inner.Head(ctx, name)
	}
	return info, err
}

// Delete implements objstore.Store.
func (s *retryStore) Delete(ctx context.Context, name string) error {
	err := s.inner.Delete(ctx, name)
	for attempt := 0; s.again(ctx, OpDelete, name, err, attempt); attempt++ {
		err = s.inner.Delete(ctx, name)
	}
	return err
}

// Copy implements objstore.Store.
func (s *retryStore) Copy(ctx context.Context, src, dst string) error {
	err := s.inner.Copy(ctx, src, dst)
	for attempt := 0; s.again(ctx, OpCopy, src, err, attempt); attempt++ {
		err = s.inner.Copy(ctx, src, dst)
	}
	return err
}

// retryBatch runs one batch through call, which forwards a (sub-)batch
// to the inner store, and re-issues its transiently failed subset in
// waves. Callers pass call as a literal that names the objstore.Multi*
// helper, so costcheck sees the wrapper delegate. Each wave shares one
// backoff charge — the batch waits out a single jittered window before
// its retries go back out together, mirroring how the native Batcher
// charges the group one overlapped window. A retried slot takes its
// result from the wave that last issued it. Nothing of the caller's
// items is written but what copyBack (nil for none) copies from a
// retried one: the only output the Batcher contract names on an input
// is PutReq.ETag. errOf reads a slot's error in place, so a healthy
// batch is scanned without copying its results.
func retryBatch[In, Out any](ctx context.Context, s *retryStore, op Op, items []In, name func(In) string,
	call func([]In) []Out, errOf func(*Out) error, copyBack func(dst *In, src In)) []Out {
	out := call(items)
	pending := transientSlots(out, errOf)
	for attempt := 0; attempt < maxAttempts-1 && len(pending) > 0 && ctx.Err() == nil; attempt++ {
		s.reg.Inc("retry.attempts", int64(len(pending)))
		//h2vet:ignore costcheck batch backoff is real service time: the retried wave waits one jittered window on top of the inner store's charges
		vclock.Charge(ctx, backoff(op, name(items[pending[0]]), attempt))
		sub := make([]In, len(pending))
		for j, i := range pending {
			sub[j] = items[i]
		}
		res := call(sub)
		still := make([]int, 0, len(pending))
		for j, i := range pending {
			out[i] = res[j]
			if copyBack != nil {
				copyBack(&items[i], sub[j])
			}
			if objstore.Transient(errOf(&res[j])) {
				still = append(still, i)
			}
		}
		pending = still
	}
	if len(pending) > 0 {
		s.reg.Inc("retry.exhausted", int64(len(pending)))
	}
	return out
}

// MultiGet implements objstore.Batcher, retrying the transient subset.
func (s *retryStore) MultiGet(ctx context.Context, names []string) []objstore.GetResult {
	return retryBatch(ctx, s, OpGet, names, itself, func(sub []string) []objstore.GetResult {
		return objstore.MultiGet(ctx, s.inner, sub)
	}, func(r *objstore.GetResult) error { return r.Err }, nil)
}

// MultiHead implements objstore.Batcher, retrying the transient subset.
func (s *retryStore) MultiHead(ctx context.Context, names []string) []objstore.HeadResult {
	return retryBatch(ctx, s, OpHead, names, itself, func(sub []string) []objstore.HeadResult {
		return objstore.MultiHead(ctx, s.inner, sub)
	}, func(r *objstore.HeadResult) error { return r.Err }, nil)
}

// MultiPut implements objstore.Batcher, retrying the transient subset.
func (s *retryStore) MultiPut(ctx context.Context, reqs []objstore.PutReq) []error {
	return retryBatch(ctx, s, OpPut, reqs, func(r objstore.PutReq) string { return r.Name }, func(sub []objstore.PutReq) []error {
		return objstore.MultiPut(ctx, s.inner, sub)
	}, ownErr, func(dst *objstore.PutReq, src objstore.PutReq) { dst.ETag = src.ETag })
}

// MultiDelete implements objstore.Batcher, retrying the transient subset.
func (s *retryStore) MultiDelete(ctx context.Context, names []string) []error {
	return retryBatch(ctx, s, OpDelete, names, itself, func(sub []string) []error {
		return objstore.MultiDelete(ctx, s.inner, sub)
	}, ownErr, nil)
}

// itself is the identity: a name that is its own key.
func itself[T any](v T) T { return v }

// ownErr reads a result that is its own error.
func ownErr(p *error) error { return *p }

// transientSlots returns the indexes of results whose error is
// transient. It allocates only once one is found, so a healthy batch
// passes through the ring for free.
func transientSlots[T any](results []T, errOf func(*T) error) []int {
	var slots []int
	for i := range results {
		if err := errOf(&results[i]); err != nil && objstore.Transient(err) {
			slots = append(slots, i)
		}
	}
	return slots
}
