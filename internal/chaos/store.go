package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/storemw"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// Op names one store primitive for targeted triggers and fault keying.
type Op string

// The store primitives an Engine can fault.
const (
	OpPut      Op = "put"
	OpGet      Op = "get"
	OpGetRange Op = "getrange"
	OpHead     Op = "head"
	OpDelete   Op = "delete"
	OpCopy     Op = "copy"
)

// ErrInjected marks a targeted (substring-triggered) fault. Unlike the
// plan's probabilistic errors it does not wrap objstore.ErrNodeDown, so
// retry layers treat it as permanent and tests see it surface intact.
var ErrInjected = errors.New("chaos: injected fault")

// Store wraps an objstore.Store with the engine's fault plan plus
// targeted substring triggers (the capability the former test-local
// faultyStore provided): FailOn(op, substr) makes every op whose object
// name contains substr fail with ErrInjected.
type Store struct {
	inner objstore.Store
	eng   *Engine

	mu       sync.Mutex
	triggers map[Op]string
}

var (
	_ storemw.Wrapper  = (*Store)(nil)
	_ objstore.Batcher = (*Store)(nil)
)

// Store wraps inner with this engine's fault plan.
func (e *Engine) Store(inner objstore.Store) *Store {
	return &Store{inner: inner, eng: e, triggers: make(map[Op]string)}
}

// Layer adapts the engine to the store middleware stack: a chaos ring
// assembled with storemw.Stack like any other.
func (e *Engine) Layer() storemw.Layer {
	return func(inner objstore.Store) objstore.Store { return e.Store(inner) }
}

// Unwrap implements storemw.Wrapper.
func (s *Store) Unwrap() objstore.Store { return s.inner }

// FailOn arms (or, with substr == "", disarms) the targeted trigger for
// one primitive: operations whose object name contains substr fail with
// ErrInjected before reaching the wrapped store.
func (s *Store) FailOn(op Op, substr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if substr == "" {
		delete(s.triggers, op)
		return
	}
	s.triggers[op] = substr
}

// triggered reports whether a targeted trigger matches.
func (s *Store) triggered(op Op, name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	substr, ok := s.triggers[op]
	return ok && strings.Contains(name, substr)
}

// inject applies the fault plan to one primitive: the targeted trigger
// first (permanent ErrInjected), then a latency spike charged to the
// virtual clock, then the transient error roll. A nil error means the
// operation proceeds to the wrapped store.
func (s *Store) inject(ctx context.Context, op Op, name string) error {
	if s.triggered(op, name) {
		return fmt.Errorf("chaos: %s %q: %w", op, name, ErrInjected)
	}
	if d := s.eng.spikeFor(op, name); d > 0 {
		s.eng.spikes.Add(1)
		s.eng.reg.Inc("chaos.spikes", 1)
		//h2vet:ignore costcheck latency spikes model extra service time on top of the wrapped store's own charge
		vclock.Charge(ctx, d)
	}
	if s.eng.decide("err."+string(op), name, s.eng.liveErrRate()) {
		s.eng.faults.Add(1)
		s.eng.reg.Inc("chaos.faults", 1)
		return fmt.Errorf("chaos: %s %q: %w", op, name, objstore.ErrNodeDown)
	}
	return nil
}

// Put implements objstore.Store.
func (s *Store) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	if err := s.inject(ctx, OpPut, name); err != nil {
		return err
	}
	return s.inner.Put(ctx, name, data, meta)
}

// Get implements objstore.Store.
func (s *Store) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	if err := s.inject(ctx, OpGet, name); err != nil {
		return nil, objstore.ObjectInfo{}, err
	}
	return s.inner.Get(ctx, name)
}

// GetRange implements objstore.Store.
func (s *Store) GetRange(ctx context.Context, name string, offset, length int64) ([]byte, objstore.ObjectInfo, error) {
	if err := s.inject(ctx, OpGetRange, name); err != nil {
		return nil, objstore.ObjectInfo{}, err
	}
	return s.inner.GetRange(ctx, name, offset, length)
}

// Head implements objstore.Store.
func (s *Store) Head(ctx context.Context, name string) (objstore.ObjectInfo, error) {
	if err := s.inject(ctx, OpHead, name); err != nil {
		return objstore.ObjectInfo{}, err
	}
	return s.inner.Head(ctx, name)
}

// Delete implements objstore.Store.
func (s *Store) Delete(ctx context.Context, name string) error {
	if err := s.inject(ctx, OpDelete, name); err != nil {
		return err
	}
	return s.inner.Delete(ctx, name)
}

// Copy implements objstore.Store. Fault decisions key on the source name.
func (s *Store) Copy(ctx context.Context, src, dst string) error {
	if err := s.inject(ctx, OpCopy, src); err != nil {
		return err
	}
	return s.inner.Copy(ctx, src, dst)
}

// Batch forwarding: the fault plan applies per item — every decision
// keys on the object name exactly as the singular primitive would, so
// same-seed runs fault the same items whether callers batch or not —
// and the surviving subset is forwarded downward as one batch.

// MultiGet implements objstore.Batcher.
func (s *Store) MultiGet(ctx context.Context, names []string) []objstore.GetResult {
	out := make([]objstore.GetResult, len(names))
	fwd, slots := s.injectBatch(ctx, OpGet, names, func(i int, err error) { out[i].Err = err })
	for j, r := range objstore.MultiGet(ctx, s.inner, fwd) {
		out[slots[j]] = r
	}
	return out
}

// MultiHead implements objstore.Batcher.
func (s *Store) MultiHead(ctx context.Context, names []string) []objstore.HeadResult {
	out := make([]objstore.HeadResult, len(names))
	fwd, slots := s.injectBatch(ctx, OpHead, names, func(i int, err error) { out[i].Err = err })
	for j, r := range objstore.MultiHead(ctx, s.inner, fwd) {
		out[slots[j]] = r
	}
	return out
}

// MultiPut implements objstore.Batcher. An injected slot reports no ETag;
// a forwarded one reports what the wrapped store sealed.
func (s *Store) MultiPut(ctx context.Context, reqs []objstore.PutReq) []error {
	out := make([]error, len(reqs))
	names := make([]string, len(reqs))
	for i, r := range reqs {
		names[i] = r.Name
	}
	_, slots := s.injectBatch(ctx, OpPut, names, func(i int, err error) { out[i], reqs[i].ETag = err, "" })
	sub := make([]objstore.PutReq, len(slots))
	for j, i := range slots {
		sub[j] = reqs[i]
	}
	for j, err := range objstore.MultiPut(ctx, s.inner, sub) {
		out[slots[j]], reqs[slots[j]].ETag = err, sub[j].ETag
	}
	return out
}

// MultiDelete implements objstore.Batcher.
func (s *Store) MultiDelete(ctx context.Context, names []string) []error {
	out := make([]error, len(names))
	fwd, slots := s.injectBatch(ctx, OpDelete, names, func(i int, err error) { out[i] = err })
	for j, err := range objstore.MultiDelete(ctx, s.inner, fwd) {
		out[slots[j]] = err
	}
	return out
}

// injectBatch rolls the fault plan for every item, reporting injected
// failures through setErr and returning the names (and their original
// slots) that survive to be forwarded.
func (s *Store) injectBatch(ctx context.Context, op Op, names []string, setErr func(int, error)) ([]string, []int) {
	fwd := make([]string, 0, len(names))
	slots := make([]int, 0, len(names))
	for i, name := range names {
		if err := s.inject(ctx, op, name); err != nil {
			setErr(i, err)
			continue
		}
		fwd = append(fwd, name)
		slots = append(slots, i)
	}
	return fwd, slots
}
