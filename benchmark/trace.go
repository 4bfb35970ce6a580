package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one user op
// (or one maintenance pass) share op_id; parent is 0 for the root span.
type span struct {
	OpID     int64  `json:"op_id"`
	SpanID   int64  `json:"span_id"`
	Parent   int64  `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	KeyClass string `json:"key_class,omitempty"`
	Bytes    int64  `json:"bytes"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Store spans may be
// recorded from the program's pipeline goroutines, hence the lock.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef names the span that encloses a call; it travels in the context
// the program passes down to the store.
type spanRef struct{ op, id int64 }

type spanKey struct{}

func refOf(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent and returns its reference. A zero
// parent opens the root span of op.
func (t *tracer) begin(parent spanRef, layer, name, class string) spanRef {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		OpID: parent.op, SpanID: id, Parent: parent.id,
		Layer: layer, Name: name, KeyClass: class, Start: now,
	})
	return spanRef{op: parent.op, id: id}
}

// end closes the span and returns its duration.
func (t *tracer) end(ref spanRef, bytes int64) time.Duration {
	return t.endAt(ref, t.now(), bytes)
}

// endAt closes the span at a time already read.
func (t *tracer) endAt(ref spanRef, at, bytes int64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[ref.id-1]
	s.End, s.Bytes = at, bytes
	return time.Duration(s.dur())
}

// with opens a span and returns a context that makes it the parent of
// whatever the callee records.
func (t *tracer) with(ctx context.Context, parent spanRef, layer, name string) (context.Context, spanRef) {
	ref := t.begin(parent, layer, name, "")
	return context.WithValue(ctx, spanKey{}, ref), ref
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTree indexes a finished trace for analysis.
type spanTree struct {
	spans []span
	kids  map[int64][]int // span id -> indices of its children
	roots []int
}

func buildTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, kids: make(map[int64][]int)}
	for i := range spans {
		if spans[i].Parent == 0 {
			t.roots = append(t.roots, i)
		} else {
			t.kids[spans[i].Parent] = append(t.kids[spans[i].Parent], i)
		}
	}
	return t
}

// self is the span's duration minus the part of it its children cover.
// Children may overlap each other (batched work on pipeline goroutines),
// so the covered part is the union of their intervals clipped to the
// parent.
func (t *spanTree) self(i int) int64 {
	s := &t.spans[i]
	kids := t.kids[s.SpanID]
	if len(kids) == 0 {
		return s.dur()
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	covered, hi := int64(0), s.Start
	for _, v := range ivs {
		if v.b <= hi {
			continue
		}
		covered += v.b - max(v.a, hi)
		hi = v.b
	}
	return s.dur() - covered
}

// walk visits i and its descendants.
func (t *spanTree) walk(i int, fn func(i int)) {
	fn(i)
	for _, k := range t.kids[t.spans[i].SpanID] {
		t.walk(k, fn)
	}
}

// check verifies the structural invariants of a trace: every span closed,
// every child inside its parent and of the same op, self time never
// negative, exactly one root per op.
func (t *spanTree) check() error {
	byID := make(map[int64]*span, len(t.spans))
	for i := range t.spans {
		byID[t.spans[i].SpanID] = &t.spans[i]
	}
	rootsPerOp := make(map[int64]int)
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s/%s) never closed", s.SpanID, s.Layer, s.Name)
		}
		if s.Parent == 0 {
			rootsPerOp[s.OpID]++
			continue
		}
		p := byID[s.Parent]
		if p == nil {
			return fmt.Errorf("span %d has unknown parent %d", s.SpanID, s.Parent)
		}
		if p.OpID != s.OpID {
			return fmt.Errorf("span %d op %d under parent of op %d", s.SpanID, s.OpID, p.OpID)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s/%s) leaks out of parent %d", s.SpanID, s.Layer, s.Name, p.SpanID)
		}
		if t.self(i) < 0 {
			return fmt.Errorf("span %d has negative self time", s.SpanID)
		}
	}
	for op, n := range rootsPerOp {
		if n != 1 {
			return fmt.Errorf("op %d has %d root spans", op, n)
		}
	}
	return nil
}
