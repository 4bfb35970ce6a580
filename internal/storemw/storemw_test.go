package storemw

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// fakeStore is a scripted in-memory Store (no Batcher): per-name
// transient-failure countdowns, a per-op virtual cost, and an op log.
type fakeStore struct {
	mu       sync.Mutex
	objects  map[string][]byte
	failures map[string]int // remaining transient failures per name
	cost     time.Duration
	ops      []string
}

func newFakeStore(cost time.Duration) *fakeStore {
	return &fakeStore{objects: map[string][]byte{}, failures: map[string]int{}, cost: cost}
}

func (f *fakeStore) enter(ctx context.Context, op, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, op+" "+name)
	vclock.Charge(ctx, f.cost)
	if f.failures[name] > 0 {
		f.failures[name]--
		return fmt.Errorf("fake: %s %q: %w", op, name, objstore.ErrNodeDown)
	}
	return nil
}

func (f *fakeStore) opCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ops)
}

func (f *fakeStore) Put(ctx context.Context, name string, data []byte, meta map[string]string) error {
	if err := f.enter(ctx, "put", name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.objects[name] = append([]byte(nil), data...)
	return nil
}

func (f *fakeStore) Get(ctx context.Context, name string) ([]byte, objstore.ObjectInfo, error) {
	if err := f.enter(ctx, "get", name); err != nil {
		return nil, objstore.ObjectInfo{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.objects[name]
	if !ok {
		return nil, objstore.ObjectInfo{}, objstore.ErrNotFound
	}
	return append([]byte(nil), data...), objstore.ObjectInfo{Name: name, Size: int64(len(data)), ETag: objstore.ETag(data)}, nil
}

func (f *fakeStore) GetRange(ctx context.Context, name string, offset, length int64) ([]byte, objstore.ObjectInfo, error) {
	return f.Get(ctx, name)
}

func (f *fakeStore) Head(ctx context.Context, name string) (objstore.ObjectInfo, error) {
	_, info, err := f.Get(ctx, name)
	return info, err
}

func (f *fakeStore) Delete(ctx context.Context, name string) error {
	if err := f.enter(ctx, "delete", name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.objects[name]; !ok {
		return objstore.ErrNotFound
	}
	delete(f.objects, name)
	return nil
}

func (f *fakeStore) Copy(ctx context.Context, src, dst string) error {
	if err := f.enter(ctx, "copy", src); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.objects[src]
	if !ok {
		return objstore.ErrNotFound
	}
	f.objects[dst] = append([]byte(nil), data...)
	return nil
}

func TestStackOrderAndBase(t *testing.T) {
	base := newFakeStore(0)
	reg := metrics.NewRegistry()
	s := Stack(base, Retry(reg), Metrics(reg))
	// Last layer is outermost.
	if _, ok := s.(*metricsStore); !ok {
		t.Fatalf("outermost ring is %T, want *metricsStore", s)
	}
	mid := s.(Wrapper).Unwrap()
	if _, ok := mid.(*retryStore); !ok {
		t.Fatalf("middle ring is %T, want *retryStore", mid)
	}
	if got := mid.(Wrapper).Unwrap(); got != objstore.Store(base) {
		t.Fatalf("innermost ring wraps %T, want the fake base store", got)
	}
	if got := Stack(base); got != objstore.Store(base) {
		t.Fatal("empty Stack should return the base unchanged")
	}
	if got := Stack(base, nil, nil); got != objstore.Store(base) {
		t.Fatal("nil layers should be skipped")
	}
}

func TestRetrySingularRecoversAndCharges(t *testing.T) {
	base := newFakeStore(0)
	reg := metrics.NewRegistry()
	s := Stack(base, Retry(reg))

	base.failures["a"] = 2
	tr := vclock.NewTracker()
	ctx := vclock.With(context.Background(), tr)
	if err := s.Put(ctx, "a", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("retry.attempts"); got != 2 {
		t.Fatalf("retry.attempts = %d, want 2", got)
	}
	want := backoff("put", "a", 0) + backoff("put", "a", 1)
	if tr.Elapsed() != want {
		t.Fatalf("charged %v, want the two jittered backoffs %v", tr.Elapsed(), want)
	}
	if got := reg.Counter("retry.exhausted"); got != 0 {
		t.Fatalf("retry.exhausted = %d, want 0", got)
	}
}

func TestRetryExhaustion(t *testing.T) {
	base := newFakeStore(0)
	reg := metrics.NewRegistry()
	s := Stack(base, Retry(reg))
	base.failures["gone"] = 10
	err := s.Put(context.Background(), "gone", nil, nil)
	if !errors.Is(err, objstore.ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if got := reg.Counter("retry.exhausted"); got != 1 {
		t.Fatalf("retry.exhausted = %d, want 1", got)
	}
	// Permanent errors surface without retrying.
	before := base.opCount()
	if _, _, err := s.Get(context.Background(), "missing"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if base.opCount() != before+1 {
		t.Fatal("permanent error was retried")
	}
}

func TestRetryBatchRetriesOnlyTransientSlots(t *testing.T) {
	base := newFakeStore(0)
	reg := metrics.NewRegistry()
	s := Stack(base, Retry(reg))
	ctx := context.Background()
	for _, name := range []string{"a", "b", "c"} {
		if err := base.Put(ctx, name, []byte(name), nil); err != nil {
			t.Fatal(err)
		}
	}
	base.failures["b"] = 1 // recovers on the first retry wave
	base.failures["c"] = 9 // exhausts

	tr := vclock.NewTracker()
	out := objstore.MultiGet(vclock.With(ctx, tr), s, []string{"a", "b", "c", "nope"})
	if out[0].Err != nil || string(out[0].Data) != "a" {
		t.Fatalf("slot 0 = (%q, %v), want clean read", out[0].Data, out[0].Err)
	}
	if out[1].Err != nil || string(out[1].Data) != "b" {
		t.Fatalf("slot 1 = (%q, %v), want recovery after one wave", out[1].Data, out[1].Err)
	}
	if !errors.Is(out[2].Err, objstore.ErrNodeDown) {
		t.Fatalf("slot 2 err = %v, want exhausted ErrNodeDown", out[2].Err)
	}
	if !errors.Is(out[3].Err, objstore.ErrNotFound) {
		t.Fatalf("slot 3 err = %v, want permanent ErrNotFound untouched", out[3].Err)
	}
	// Wave 0 retried {b, c}; waves 1 and 2 retried {c}: 4 attempt
	// increments, one exhausted slot, one shared backoff charge per wave.
	if got := reg.Counter("retry.attempts"); got != 4 {
		t.Fatalf("retry.attempts = %d, want 4", got)
	}
	if got := reg.Counter("retry.exhausted"); got != 1 {
		t.Fatalf("retry.exhausted = %d, want 1", got)
	}
	want := backoff("get", "b", 0) + backoff("get", "c", 1) + backoff("get", "c", 2)
	if tr.Elapsed() != want {
		t.Fatalf("charged %v, want one shared backoff per wave = %v", tr.Elapsed(), want)
	}
}

// TestMultiPutETagsSurviveRetryWaves: through metrics over retry, a slot
// that lands in the first pass or in a retry wave's sub-batch reports the
// ETag a following Head returns, and a slot that exhausts reports none,
// whatever the request carried in.
func TestMultiPutETagsSurviveRetryWaves(t *testing.T) {
	base := newFakeStore(0)
	reg := metrics.NewRegistry()
	s := Stack(base, Retry(reg), Metrics(reg))
	base.failures["b"] = 1 // lands in the first retry wave
	base.failures["c"] = 9 // exhausts
	reqs := []objstore.PutReq{
		{Name: "a", Data: []byte("alpha"), ETag: "stale"},
		{Name: "b", Data: []byte("beta"), ETag: "stale"},
		{Name: "c", Data: []byte("gamma"), ETag: "stale"},
	}
	ctx := context.Background()
	out := objstore.MultiPut(ctx, s, reqs)
	for i, r := range reqs[:2] {
		if out[i] != nil {
			t.Fatalf("slot %d: %v", i, out[i])
		}
		info, err := s.Head(ctx, r.Name)
		if err != nil {
			t.Fatal(err)
		}
		if want := objstore.ETag(r.Data); r.ETag != want || info.ETag != want {
			t.Fatalf("slot %d reported %q, Head says %q, want %q", i, r.ETag, info.ETag, want)
		}
	}
	if !errors.Is(out[2], objstore.ErrNodeDown) || reqs[2].ETag != "" {
		t.Fatalf("exhausted slot = (%v, %q), want ErrNodeDown and no ETag", out[2], reqs[2].ETag)
	}
	if got := reg.Counter("retry.attempts"); got != 4 {
		t.Fatalf("retry.attempts = %d, want 4 (waves {b, c}, {c} and {c})", got)
	}
}

// TestRetryWavesShareCallerNames: retry waves only read the caller's
// names slice, so concurrent batches over one slice are race-free (run
// under -race) and every retried slot still lands.
func TestRetryWavesShareCallerNames(t *testing.T) {
	base := newFakeStore(0)
	s := Stack(base, Retry(nil))
	names := []string{"a", "b", "c"}
	ctx := context.Background()
	for _, n := range names {
		if err := s.Put(ctx, n, []byte(n), nil); err != nil {
			t.Fatal(err)
		}
		base.failures[n] = 2
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range objstore.MultiGet(ctx, s, names) {
				if r.Err != nil || string(r.Data) != names[i] {
					t.Errorf("slot %d = (%q, %v)", i, r.Data, r.Err)
				}
			}
		}()
	}
	wg.Wait()
}

func TestMetricsObservesWithoutDoubleCharging(t *testing.T) {
	base := newFakeStore(9 * time.Millisecond)
	reg := metrics.NewRegistry()
	s := Stack(base, Metrics(reg))
	tr := vclock.NewTracker()
	ctx := vclock.With(context.Background(), tr)
	if err := s.Put(ctx, "a", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if tr.Elapsed() != 18*time.Millisecond {
		t.Fatalf("request charged %v, want exactly the inner store's 18ms", tr.Elapsed())
	}
	var put, get bool
	for _, op := range reg.Snapshot() {
		switch op.Name {
		case "store.put":
			put = op.Count == 1
		case "store.get":
			get = op.Count == 1
		}
	}
	if !put || !get {
		t.Fatalf("missing per-op observations: put=%v get=%v", put, get)
	}
}

func TestMetricsBatchObservation(t *testing.T) {
	base := newFakeStore(5 * time.Millisecond)
	reg := metrics.NewRegistry()
	s := Stack(base, Metrics(reg))
	ctx := context.Background()
	for _, name := range []string{"a", "b"} {
		if err := base.Put(ctx, name, []byte(name), nil); err != nil {
			t.Fatal(err)
		}
	}
	tr := vclock.NewTracker()
	out := objstore.MultiGet(vclock.With(ctx, tr), s, []string{"a", "b"})
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	// The fake store has no Batcher, so the fallback issues two singular
	// Gets; the metrics ring re-charges their sum unchanged.
	if tr.Elapsed() != 10*time.Millisecond {
		t.Fatalf("request charged %v, want the inner 10ms", tr.Elapsed())
	}
}

// TestMetricsCountsFaultsNotMisses: a miss is the store's answer, so
// neither a singular nor a batched one counts as its op's error; a fault
// beside a miss in one batch still does.
func TestMetricsCountsFaultsNotMisses(t *testing.T) {
	base := newFakeStore(0)
	reg := metrics.NewRegistry()
	s := Stack(base, Metrics(reg))
	ctx := context.Background()
	if _, _, err := s.Get(ctx, "nope"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("Get = %v, want a miss", err)
	}
	objstore.MultiGet(ctx, s, []string{"nope"})
	base.failures["down"] = 1
	objstore.MultiGet(ctx, s, []string{"nope", "down"})
	errs := map[string]int64{}
	for _, op := range reg.Snapshot() {
		errs[op.Name] = op.Errors
	}
	if errs["store.get"] != 0 || errs["store.multiget"] != 1 {
		t.Fatalf("errors = %v, want store.get 0 and store.multiget 1 (the fault)", errs)
	}
}

// TestRetryRingSendsAFailedPreconditionOnce: a failed precondition is the
// store's answer, not a fault that may heal, so the retry ring returns it
// without a second attempt; the metrics ring bills the one PUT and counts
// no error.
func TestRetryRingSendsAFailedPreconditionOnce(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	var calls int
	counted := Before(func(context.Context, Op, string, []byte) error { calls++; return nil })
	s := Stack(cl, counted, Retry(reg), Metrics(reg))
	ctx := context.Background()
	ring := core.RingKey("a", "N1")
	if err := s.Put(ctx, ring, []byte("v0"), nil); err != nil {
		t.Fatal(err)
	}
	before, calls := reg.Requests(), 0
	req := []objstore.PutReq{{Name: ring, Data: []byte("v1"), IfMatch: objstore.ETag([]byte("other"))}}
	if err := objstore.MultiPut(ctx, s, req)[0]; !errors.Is(err, objstore.ErrPrecondition) || req[0].ETag != "" {
		t.Fatalf("put over a stale tag = (%v, %q), want ErrPrecondition and no ETag", err, req[0].ETag)
	}
	if calls != 1 || reg.Counter("retry.attempts") != 0 {
		t.Fatalf("the store saw %d calls and retry.attempts = %d, want 1 and 0", calls, reg.Counter("retry.attempts"))
	}
	if got := reg.Requests().Sub(before)[metrics.PrimPut][core.KeyRing].N; got != 1 {
		t.Fatalf("billed %d ring PUTs, want 1", got)
	}
	for _, op := range reg.Snapshot() {
		if op.Errors != 0 {
			t.Fatalf("%s counts %d errors; a failed precondition is no fault", op.Name, op.Errors)
		}
	}
}

// TestRequestTableBilling pins how the metrics ring bills the request
// table: a batch of n names is n requests, a GetRange is a GET, a COPY
// counts under its destination, PUT and GET carry their payload bytes, a
// miss is a request, and a retried call counts once.
func TestRequestTableBilling(t *testing.T) {
	base := newFakeStore(0)
	reg := metrics.NewRegistry()
	s := Stack(base, Retry(reg), Metrics(reg))
	ctx := context.Background()
	ring, child := core.RingKey("a", "N1"), core.ChildKey("a", "N1", "f")
	patch, missing := core.PatchKey("a", "N1", 1, 1), core.PatchKey("a", "N1", 1, 2)
	base.failures[ring] = 1
	if err := s.Put(ctx, ring, []byte("ring!"), nil); err != nil {
		t.Fatal(err)
	}
	objstore.MultiPut(ctx, s, []objstore.PutReq{{Name: patch, Data: []byte("pp")}, {Name: child, Data: []byte("ccc")}})
	if _, _, err := s.GetRange(ctx, ring, 0, 5); err != nil {
		t.Fatal(err)
	}
	objstore.MultiGet(ctx, s, []string{patch, patch, missing})
	objstore.MultiHead(ctx, s, []string{ring, child})
	if err := s.Copy(ctx, child, core.SegmentKey("a", "N1", "f", 0)); err != nil {
		t.Fatal(err)
	}
	var want metrics.RequestTable
	want[metrics.PrimPut][core.KeyRing] = metrics.Requests{N: 1, Bytes: 5}
	want[metrics.PrimPut][core.KeyPatch] = metrics.Requests{N: 1, Bytes: 2}
	want[metrics.PrimPut][core.KeyChild] = metrics.Requests{N: 1, Bytes: 3}
	want[metrics.PrimGet][core.KeyRing] = metrics.Requests{N: 1, Bytes: 5}
	want[metrics.PrimGet][core.KeyPatch] = metrics.Requests{N: 3, Bytes: 4}
	want[metrics.PrimHead][core.KeyRing] = metrics.Requests{N: 1}
	want[metrics.PrimHead][core.KeyChild] = metrics.Requests{N: 1}
	want[metrics.PrimCopy][core.KeySegment] = metrics.Requests{N: 1}
	if got := reg.Requests(); got != want {
		t.Fatalf("request table = %v, want %v", got.Named(), want.Named())
	}
	if got := reg.Counter("retry.attempts"); got != 1 {
		t.Fatalf("retry.attempts = %d, want the one retried PUT", got)
	}
}

func TestStackedRetryAndMetrics(t *testing.T) {
	base := newFakeStore(3 * time.Millisecond)
	reg := metrics.NewRegistry()
	s := Stack(base, Retry(reg), Metrics(reg))
	base.failures["a"] = 1
	tr := vclock.NewTracker()
	if err := s.Put(vclock.With(context.Background(), tr), "a", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	// Two inner attempts plus one backoff, observed once and re-charged
	// exactly once.
	want := 6*time.Millisecond + backoff("put", "a", 0)
	if tr.Elapsed() != want {
		t.Fatalf("charged %v, want %v", tr.Elapsed(), want)
	}
}

// TestMetricsGetAllocatesWhatTheClusterDoes: observing a store call costs
// no allocation, so a Get through Retry and Metrics allocates exactly what
// the bare cluster Get does — its returned copy.
func TestMetricsGetAllocatesWhatTheClusterDoes(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := vclock.With(context.Background(), vclock.NewTracker())
	if err := cl.Put(ctx, "hot/object", []byte("0123456789abcdef"), nil); err != nil {
		t.Fatal(err)
	}
	stack := Stack(cl, Retry(metrics.NewRegistry()), Metrics(metrics.NewRegistry()))
	get := func(s objstore.Store) func() {
		return func() {
			if _, _, err := s.Get(ctx, "hot/object"); err != nil {
				t.Fatal(err)
			}
		}
	}
	bare := testing.AllocsPerRun(200, get(cl))
	if wrapped := testing.AllocsPerRun(200, get(stack)); wrapped != bare {
		t.Fatalf("Get through Retry and Metrics allocates %v times, the bare cluster %v", wrapped, bare)
	}
}

// TestRetryRingAllocatesNothingOnHealthyBatches: a batch with no
// transient slot passes through the retry ring for free, so each Multi*
// through Retry and Metrics allocates what it does through Metrics alone.
func TestRetryRingAllocatesNothingOnHealthyBatches(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := vclock.With(context.Background(), vclock.NewTracker())
	names := make([]string, 16)
	reqs := make([]objstore.PutReq, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("hot/obj%02d", i)
		reqs[i] = objstore.PutReq{Name: names[i], Data: []byte("0123456789abcdef")}
	}
	missing := []string{"hot/gone"}
	batches := []struct {
		name string
		run  func(s objstore.Store)
	}{
		{"MultiPut", func(s objstore.Store) {
			for _, err := range objstore.MultiPut(ctx, s, reqs) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"MultiGet", func(s objstore.Store) {
			for _, r := range objstore.MultiGet(ctx, s, names) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
		}},
		{"MultiHead", func(s objstore.Store) {
			for _, r := range objstore.MultiHead(ctx, s, names) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
		}},
		// A permanent miss is not retried either.
		{"MultiDelete", func(s objstore.Store) { objstore.MultiDelete(ctx, s, missing) }},
	}
	metered := Stack(cl, Metrics(metrics.NewRegistry()))
	full := Stack(cl, Retry(metrics.NewRegistry()), Metrics(metrics.NewRegistry()))
	for _, b := range batches {
		want := testing.AllocsPerRun(100, func() { b.run(metered) })
		if got := testing.AllocsPerRun(100, func() { b.run(full) }); got != want {
			t.Errorf("%s through Retry and Metrics allocates %v times, through Metrics alone %v", b.name, got, want)
		}
	}
}

// TestBeforeRingContract pins the pre-call ring over a cluster behind the
// metrics ring, whose observations count the batches that reach it: the
// hook runs per call and per batch slot, in slot order, with the op, the
// name (a Copy's source) and a put's payload; a refused call or slot
// reports the hook's error and never reaches the inner store, a refused
// MultiPut slot reports no ETag, and the slots that pass arrive as one
// batch whose ETags are copied back.
func TestBeforeRingContract(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	errHook := errors.New("hook refused")
	var hooked []string
	s := Stack(cl, Metrics(reg), Before(func(_ context.Context, op Op, name string, data []byte) error {
		hooked = append(hooked, fmt.Sprintf("%s %s %s", op, name, data))
		if name[0] == 'x' {
			return errHook
		}
		return nil
	}))
	ctx := context.Background()
	reqs := []objstore.PutReq{{Name: "a", Data: []byte("A")}, {Name: "x", Data: []byte("X"), ETag: "stale"}, {Name: "c", Data: []byte("C")}}
	puts := objstore.MultiPut(ctx, s, reqs)
	names := []string{"a", "x", "c"}
	gets, heads := objstore.MultiGet(ctx, s, names), objstore.MultiHead(ctx, s, names)
	copyErr, refusedCopy := s.Copy(ctx, "a", "b"), s.Copy(ctx, "x", "y")
	_, _, rangeErr := s.GetRange(ctx, "xr", 0, 1)
	dels := objstore.MultiDelete(ctx, s, names)

	want := []string{"put a A", "put x X", "put c C", "get a ", "get x ", "get c ", "head a ", "head x ", "head c ",
		"copy a ", "copy x ", "getrange xr ", "delete a ", "delete x ", "delete c "}
	if !slices.Equal(hooked, want) {
		t.Fatalf("hooks ran as %q, want %q", hooked, want)
	}
	if !errors.Is(puts[1], errHook) || reqs[1].ETag != "" || !errors.Is(gets[1].Err, errHook) ||
		!errors.Is(heads[1].Err, errHook) || !errors.Is(dels[1], errHook) || !errors.Is(refusedCopy, errHook) || !errors.Is(rangeErr, errHook) {
		t.Fatalf("refused = %v %q, %v, %v, %v, %v, %v; want the hook's error and no ETag", puts[1], reqs[1].ETag, gets[1].Err, heads[1].Err, dels[1], refusedCopy, rangeErr)
	}
	for _, i := range []int{0, 2} {
		if puts[i] != nil || reqs[i].ETag != objstore.ETag(reqs[i].Data) || string(gets[i].Data) != string(reqs[i].Data) || heads[i].Err != nil || dels[i] != nil {
			t.Fatalf("slot %d = %v %q, %v, %v, %v; want it served, with the ETag the cluster sealed", i, puts[i], reqs[i].ETag, gets[i].Err, heads[i].Err, dels[i])
		}
	}
	if copyErr != nil {
		t.Fatal(copyErr)
	}
	got := map[string]int64{}
	for _, op := range reg.Snapshot() {
		got[op.Name] = op.Count
	}
	// One inner batch per Multi* call, and only the one copy that passed.
	if wantOps := map[string]int64{"store.multiput": 1, "store.multiget": 1, "store.multihead": 1, "store.multidelete": 1, "store.copy": 1}; !maps.Equal(got, wantOps) {
		t.Fatalf("inner store saw %v, want %v", got, wantOps)
	}
	if n := reg.Requests()[metrics.PrimPut][0].N; n != 2 { // bare names are no builder's kind
		t.Fatalf("inner batch put %d names, want the 2 that passed", n)
	}
}
