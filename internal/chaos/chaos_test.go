package chaos

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/gossip"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/storemw"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// memStore is a minimal single-node store for wrapping.
func memStore(t *testing.T) objstore.Store {
	t.Helper()
	return &nodeStore{n: objstore.NewNode(0)}
}

type nodeStore struct{ n *objstore.Node }

func (s *nodeStore) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	return s.n.Put(name, data, meta, time.Unix(0, 0))
}
func (s *nodeStore) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	return s.n.Get(name)
}
func (s *nodeStore) GetRange(ctx context.Context, name string, offset, length int64) ([]byte, objstore.ObjectInfo, error) {
	data, info, err := s.n.Get(name)
	if err != nil {
		return nil, info, err
	}
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	end := int64(len(data))
	if length >= 0 && offset+length < end {
		end = offset + length
	}
	return data[offset:end], info, nil
}
func (s *nodeStore) Head(ctx context.Context, name string) (objstore.ObjectInfo, error) {
	return s.n.Head(name)
}
func (s *nodeStore) Delete(ctx context.Context, name string) error { return s.n.Delete(name) }
func (s *nodeStore) Copy(ctx context.Context, src, dst string) error {
	data, info, err := s.n.Get(src)
	if err != nil {
		return err
	}
	return s.n.Put(dst, data, info.Meta, time.Unix(0, 0))
}

// faultTrace runs a fixed op sequence and records which ops failed.
func faultTrace(t *testing.T, seed int64) []bool {
	t.Helper()
	eng := New(Plan{Seed: seed, ErrRate: 0.3}, nil)
	st := eng.Store(memStore(t))
	ctx := context.Background()
	var trace []bool
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("obj-%d", i%17)
		err := st.Put(ctx, name, []byte("x"), nil)
		trace = append(trace, err != nil)
		_, _, gerr := st.Get(ctx, name)
		trace = append(trace, gerr != nil)
	}
	return trace
}

func TestDecisionsDeterministicPerSeed(t *testing.T) {
	a := faultTrace(t, 42)
	b := faultTrace(t, 42)
	c := faultTrace(t, 43)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different fault traces")
	}
	if !diff {
		t.Fatal("different seeds produced identical fault traces (suspicious hash)")
	}
}

func TestErrRateApproximatelyHolds(t *testing.T) {
	reg := metrics.NewRegistry()
	st := New(Plan{Seed: 7, ErrRate: 0.2}, reg).Store(memStore(t))
	ctx := context.Background()
	fails := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if err := st.Put(ctx, fmt.Sprintf("k%d", i), []byte("x"), nil); err != nil {
			if !objstore.Transient(err) {
				t.Fatalf("injected error %v is not transient", err)
			}
			fails++
		}
	}
	rate := float64(fails) / n
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("observed fault rate %.3f, want ~0.2", rate)
	}
	if got := reg.Counter("chaos.faults"); got != int64(fails) {
		t.Fatalf("chaos.faults = %d, want %d", got, fails)
	}
}

func TestTargetedTriggerIsPermanentAndScoped(t *testing.T) {
	eng := New(Plan{}, nil)
	st := eng.Store(memStore(t))
	ctx := context.Background()
	eng.FailOn(storemw.OpPut, "::doomed")
	if err := st.Put(ctx, "a::doomed::b", nil, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("targeted Put = %v, want ErrInjected", err)
	}
	if objstore.Transient(fmt.Errorf("wrap: %w", ErrInjected)) {
		t.Fatal("targeted faults must not be classified transient")
	}
	if err := st.Put(ctx, "a::fine", []byte("x"), nil); err != nil {
		t.Fatalf("untargeted Put = %v", err)
	}
	eng.FailOn(storemw.OpPut, "") // disarm
	if err := st.Put(ctx, "a::doomed::b", []byte("x"), nil); err != nil {
		t.Fatalf("disarmed Put = %v", err)
	}
}

// TestMultiPutETagsSkipInjectedSlots: a slot the trigger faults reports
// no ETag, whatever its request carried; the forwarded slots report the
// ETag a following Head returns.
func TestMultiPutETagsSkipInjectedSlots(t *testing.T) {
	eng := New(Plan{}, nil)
	st := eng.Store(memStore(t))
	ctx := context.Background()
	eng.FailOn(storemw.OpPut, "::doomed")
	reqs := []objstore.PutReq{
		{Name: "a", Data: []byte("alpha")},
		{Name: "b::doomed", Data: []byte("beta"), ETag: "stale"},
		{Name: "c", Data: []byte("gamma"), ETag: "stale"},
	}
	out := objstore.MultiPut(ctx, st, reqs)
	if !errors.Is(out[1], ErrInjected) || reqs[1].ETag != "" {
		t.Fatalf("injected slot = (%v, %q), want ErrInjected and no ETag", out[1], reqs[1].ETag)
	}
	for _, i := range []int{0, 2} {
		if out[i] != nil {
			t.Fatalf("slot %d: %v", i, out[i])
		}
		info, err := st.Head(ctx, reqs[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		if want := objstore.ETag(reqs[i].Data); reqs[i].ETag != want || info.ETag != want {
			t.Fatalf("slot %d reported %q, Head says %q, want %q", i, reqs[i].ETag, info.ETag, want)
		}
	}
}

func TestSpikesChargeVirtualClock(t *testing.T) {
	reg := metrics.NewRegistry()
	st := New(Plan{Seed: 1, SpikeRate: 1.0, Spike: 100 * time.Millisecond}, reg).Store(memStore(t))
	tr := vclock.NewTracker()
	ctx := vclock.With(context.Background(), tr)
	if err := st.Put(ctx, "k", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	got := tr.Elapsed()
	if got < 50*time.Millisecond || got > 150*time.Millisecond {
		t.Fatalf("spike charged %v, want within [0.5, 1.5] of 100ms", got)
	}
	if got := reg.Counter("chaos.spikes"); got != 1 {
		t.Fatalf("chaos.spikes = %d, want 1", got)
	}
}

type fakeFailer struct{ downs map[int]bool }

func (f *fakeFailer) SetNodeDown(id int, down bool) { f.downs[id] = down }

func TestCrashScheduleAppliesInStepOrder(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	reg := metrics.NewRegistry()
	eng := New(Plan{Events: []Event{
		{Step: 2, Node: 3, Down: true},
		{Step: 5, Node: 3, Down: false},
		{Step: 5, Node: 1, Down: true},
	}}, reg)
	f := &fakeFailer{downs: map[int]bool{}}
	eng.Bind(f)
	eng.Step() // 1: nothing
	if len(f.downs) != 0 {
		t.Fatalf("events fired early: %v", f.downs)
	}
	eng.Step() // 2: node 3 down
	if !f.downs[3] {
		t.Fatal("node 3 not crashed at step 2")
	}
	eng.Step()
	eng.Step()
	eng.Step() // 5: node 3 up, node 1 down
	if f.downs[3] || !f.downs[1] {
		t.Fatalf("schedule at step 5 wrong: %v", f.downs)
	}
	if reg.Counter("chaos.crashes") != 2 || reg.Counter("chaos.restarts") != 1 {
		t.Fatalf("chaos.crashes/restarts wrong, want 2/1: %v", reg.Counters())
	}
}

func TestGossipDropAndDelay(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	inner := gossip.NewBus()
	var got []gossip.Message
	inner.Register(1, func(ctx context.Context, msg gossip.Message) { got = append(got, msg) })

	reg := metrics.NewRegistry()
	bus := New(Plan{Seed: 3, DropRate: 0.5}, reg).Gossip(inner)
	ctx := context.Background()
	const n = 200
	for i := 0; i < n; i++ {
		bus.Broadcast(2, gossip.Message{Account: "a", NS: "ns", Origin: 2, Version: int64(i)})
	}
	inner.Pump(ctx)
	dropped := reg.Counter("chaos.gossipDropped")
	if dropped == 0 || int(dropped) == n {
		t.Fatalf("dropped %d of %d, want partial drop", dropped, n)
	}
	if len(got)+int(dropped) != n {
		t.Fatalf("delivered %d + dropped %d != %d", len(got), dropped, n)
	}

	// Delay: everything deferred until ReleaseDelayed.
	got = nil
	engD := New(Plan{Seed: 3, DelayRate: 1.0}, nil)
	busD := engD.Gossip(inner)
	busD.Broadcast(2, gossip.Message{Account: "a", NS: "ns", Origin: 2, Version: 1})
	inner.Pump(ctx)
	if len(got) != 0 {
		t.Fatal("delayed message delivered before release")
	}
	if busD.PendingDelayed() != 1 {
		t.Fatalf("PendingDelayed = %d, want 1", busD.PendingDelayed())
	}
	if n := busD.ReleaseDelayed(); n != 1 {
		t.Fatalf("ReleaseDelayed = %d, want 1", n)
	}
	inner.Pump(ctx)
	if len(got) != 1 {
		t.Fatalf("delivered %d after release, want 1", len(got))
	}
}
