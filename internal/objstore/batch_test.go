package objstore

import (
	"context"
	"errors"
	"testing"
	"time"
)

// nodeStore is a Store over one Node with no Batcher, so the dispatch
// helpers take their per-item fallback. A put to refuse fails.
type nodeStore struct {
	n      *Node
	refuse string
}

var errRefused = errors.New("refused")

func (s *nodeStore) Put(_ context.Context, name string, data []byte, meta map[string]string) error {
	if name == s.refuse {
		return errRefused
	}
	return s.n.Put(name, data, meta, time.Unix(0, 0))
}

func (s *nodeStore) Get(_ context.Context, name string) ([]byte, ObjectInfo, error) {
	return s.n.Get(name)
}

func (s *nodeStore) GetRange(ctx context.Context, name string, _, _ int64) ([]byte, ObjectInfo, error) {
	return s.Get(ctx, name)
}

func (s *nodeStore) Head(_ context.Context, name string) (ObjectInfo, error) {
	return s.n.Head(name)
}

func (s *nodeStore) Delete(_ context.Context, name string) error { return s.n.Delete(name) }

func (s *nodeStore) Copy(ctx context.Context, src, dst string) error {
	data, info, err := s.n.Get(src)
	if err != nil {
		return err
	}
	return s.Put(ctx, dst, data, info.Meta)
}

// TestMultiPutFallbackReportsETags: over a store without Batcher, MultiPut
// hashes each payload that landed — the ETag a following Head returns — and
// clears the ETag of a slot that failed.
func TestMultiPutFallbackReportsETags(t *testing.T) {
	s := &nodeStore{n: NewNode(0), refuse: "b"}
	ctx := context.Background()
	reqs := []PutReq{
		{Name: "a", Data: []byte("alpha"), ETag: "stale"},
		{Name: "b", Data: []byte("beta"), ETag: "stale"},
		{Name: "c", Data: []byte("gamma")},
	}
	out := MultiPut(ctx, s, reqs)
	if !errors.Is(out[1], errRefused) || reqs[1].ETag != "" {
		t.Fatalf("failed slot = (%v, %q), want errRefused and no ETag", out[1], reqs[1].ETag)
	}
	for _, i := range []int{0, 2} {
		if out[i] != nil {
			t.Fatalf("slot %d: %v", i, out[i])
		}
		info, err := s.Head(ctx, reqs[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		if want := ETag(reqs[i].Data); reqs[i].ETag != want || info.ETag != want {
			t.Fatalf("slot %d reported %q, Head says %q, want %q", i, reqs[i].ETag, info.ETag, want)
		}
	}
}

// TestMultiPutFallbackChecksPreconditions: over a store without Batcher,
// MultiPut checks each slot's IfMatch with a Head before it puts; a slot
// that fails writes nothing and reports ErrPrecondition.
func TestMultiPutFallbackChecksPreconditions(t *testing.T) {
	s := &nodeStore{n: NewNode(0)}
	ctx := context.Background()
	if err := s.Put(ctx, "a", []byte("alpha"), map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	tag := SealedETag([]byte("alpha"), map[string]string{"k": "v"})
	reqs := []PutReq{
		{Name: "a", Data: []byte("stale"), IfMatch: ETag([]byte("alpha"))}, // the content-only hash
		{Name: "a", Data: []byte("fresh"), IfMatch: tag},
		{Name: "b", Data: []byte("beta"), IfMatch: Absent},
		{Name: "a", Data: []byte("again"), IfMatch: Absent},
	}
	out := MultiPut(ctx, s, reqs)
	for i, want := range []error{ErrPrecondition, nil, nil, ErrPrecondition} {
		if !errors.Is(out[i], want) || (want == nil) != (reqs[i].ETag != "") {
			t.Fatalf("slot %d = (%v, %q), want %v", i, out[i], reqs[i].ETag, want)
		}
	}
	for name, want := range map[string]string{"a": "fresh", "b": "beta"} {
		if data, _, err := s.Get(ctx, name); err != nil || string(data) != want {
			t.Fatalf("%s holds %q (%v), want %q", name, data, err, want)
		}
	}
}
