package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/storemw"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// ErrInjected marks a targeted (substring-triggered) fault. Unlike the
// plan's probabilistic errors it does not wrap objstore.ErrNodeDown, so
// retry layers treat it as permanent and tests see it surface intact.
var ErrInjected = errors.New("chaos: injected fault")

// Store wraps inner with this engine's fault plan and its FailOn
// triggers: inject runs before every primitive and every batch slot
// (storemw.Before), so each decision keys on the object name exactly as
// the singular primitive would, and same-seed runs fault the same items
// whether callers batch or not.
func (e *Engine) Store(inner objstore.Store) objstore.Store {
	return storemw.Before(e.inject)(inner)
}

// FailOn arms (or, with substr == "", disarms) the targeted trigger for
// one primitive: operations whose object name contains substr fail with
// ErrInjected before reaching the wrapped store.
func (e *Engine) FailOn(op storemw.Op, substr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if substr == "" {
		delete(e.triggers, op)
		return
	}
	e.triggers[op] = substr
}

// triggered reports whether a targeted trigger matches.
func (e *Engine) triggered(op storemw.Op, name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	substr, ok := e.triggers[op]
	return ok && strings.Contains(name, substr)
}

// inject applies the fault plan to one primitive: the targeted trigger
// first (permanent ErrInjected), then a latency spike charged to the
// virtual clock on top of the wrapped store's own charge, then the
// transient error roll. A nil error means the operation proceeds to the
// wrapped store.
func (e *Engine) inject(ctx context.Context, op storemw.Op, name string, _ []byte) error {
	if e.triggered(op, name) {
		return fmt.Errorf("chaos: %s %q: %w", op, name, ErrInjected)
	}
	if d := e.spikeFor(op, name); d > 0 {
		e.reg.Inc("chaos.spikes", 1)
		vclock.Charge(ctx, d)
	}
	if e.decide("err."+string(op), name, e.liveErrRate()) {
		e.reg.Inc("chaos.faults", 1)
		return fmt.Errorf("chaos: %s %q: %w", op, name, objstore.ErrNodeDown)
	}
	return nil
}
