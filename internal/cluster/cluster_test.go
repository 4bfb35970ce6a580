package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

func newTest(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{Profile: ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustPut(t testing.TB, c *Cluster, ctx context.Context, key string, data []byte, meta map[string]string) {
	t.Helper()
	if err := c.Put(ctx, key, data, meta); err != nil {
		t.Fatalf("Put %s: %v", key, err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	if err := c.Put(ctx, "alice/file1", []byte("content"), map[string]string{"type": "file"}); err != nil {
		t.Fatal(err)
	}
	data, info, err := c.Get(ctx, "alice/file1")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "content" || info.Meta["type"] != "file" {
		t.Fatalf("got %q, meta %v", data, info.Meta)
	}
}

func TestGetMissing(t *testing.T) {
	c := newTest(t)
	_, _, err := c.Get(context.Background(), "nope")
	if !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestReplication(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	if err := c.Put(ctx, "obj", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	// The object must be present on exactly ReplicaCount nodes.
	replicas := 0
	for _, id := range c.Ring().DeviceIDs() {
		if _, err := c.Node(id).Head("obj"); err == nil {
			replicas++
		}
	}
	if want := c.Ring().ReplicaCount(); replicas != want {
		t.Fatalf("object on %d nodes, want %d", replicas, want)
	}
}

func TestGetSurvivesReplicaFailures(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	mustPut(t, c, ctx, "obj", []byte("x"), nil)
	devs := c.Ring().Devices("obj")
	// Take down all but the last replica.
	for _, id := range devs[:len(devs)-1] {
		c.SetNodeDown(id, true)
	}
	if _, _, err := c.Get(ctx, "obj"); err != nil {
		t.Fatalf("Get with one live replica failed: %v", err)
	}
	c.SetNodeDown(devs[len(devs)-1], true)
	if _, _, err := c.Get(ctx, "obj"); err == nil {
		t.Fatal("Get with all replicas down succeeded")
	}
}

// TestPlacementGolden pins the node lists a request is placed on — ring
// order for primaries, partition-rotated order for handoffs, primaries
// then handoffs for the read sequence — to the values the three separate
// lookups produced before they became one.
func TestPlacementGolden(t *testing.T) {
	c := newTest(t)
	ids := func(nodes []objstore.NodeStore) []int {
		out := make([]int, len(nodes))
		for i, n := range nodes {
			out[i] = n.ID()
		}
		return out
	}
	for _, g := range []struct {
		name               string
		primaries, handoff []int
	}{
		{"acct|01.1.1::/NameRing/", []int{1, 0, 3}, []int{2, 4, 5, 6, 7}},
		{"acct|01.1.1::child000003", []int{2, 3, 0}, []int{4, 5, 6, 7, 1}},
		{"acct|01.1.1::child000006", []int{5, 4, 7}, []int{6, 0, 1, 2, 3}},
	} {
		if got := ids(c.replicaNodes(g.name)); !slices.Equal(got, g.primaries) {
			t.Errorf("replicaNodes(%q) = %v, want %v", g.name, got, g.primaries)
		}
		if got := ids(c.handoffNodes(g.name)); !slices.Equal(got, g.handoff) {
			t.Errorf("handoffNodes(%q) = %v, want %v", g.name, got, g.handoff)
		}
		want := append(slices.Clone(g.primaries), g.handoff...)
		if got := ids(c.readSequence(g.name)); !slices.Equal(got, want) {
			t.Errorf("readSequence(%q) = %v, want %v", g.name, got, want)
		}
	}
}

func TestPutQuorumAndHandoffs(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	devs := c.Ring().Devices("obj")
	// One of three primaries down: quorum still reached.
	c.SetNodeDown(devs[0], true)
	if err := c.Put(ctx, "obj", []byte("x"), nil); err != nil {
		t.Fatalf("Put with 2/3 primaries up failed: %v", err)
	}
	// Two of three primaries down: handoff nodes absorb the diverted
	// writes and the put still succeeds (Swift's availability model).
	c.SetNodeDown(devs[1], true)
	if err := c.Put(ctx, "obj", []byte("y"), nil); err != nil {
		t.Fatalf("Put with handoffs available = %v", err)
	}
	if data, _, err := c.Get(ctx, "obj"); err != nil || string(data) != "y" {
		t.Fatalf("Get after diverted put = %q, %v", data, err)
	}
	// With every node but one down there is nowhere to reach quorum.
	for _, id := range c.Ring().DeviceIDs()[1:] {
		c.SetNodeDown(id, true)
	}
	err := c.Put(ctx, "obj", []byte("z"), nil)
	if !errors.Is(err, objstore.ErrNoQuorum) {
		t.Fatalf("Put with one live node = %v, want ErrNoQuorum", err)
	}
}

func TestHandoffHandback(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	devs := c.Ring().Devices("obj")
	c.SetNodeDown(devs[0], true)
	c.SetNodeDown(devs[1], true)
	if err := c.Put(ctx, "obj", []byte("diverted"), nil); err != nil {
		t.Fatal(err)
	}
	// Count copies on non-primary nodes.
	primary := map[int]bool{devs[0]: true, devs[1]: true, devs[2]: true}
	countHandoffCopies := func() int {
		n := 0
		for _, id := range c.Ring().DeviceIDs() {
			if primary[id] {
				continue
			}
			if _, err := c.Node(id).Head("obj"); err == nil {
				n++
			}
		}
		return n
	}
	if got := countHandoffCopies(); got != 2 {
		t.Fatalf("diverted copies = %d, want 2", got)
	}
	// Primaries recover; repair restores them and reclaims the handoffs.
	c.SetNodeDown(devs[0], false)
	c.SetNodeDown(devs[1], false)
	if n := c.Repair(context.Background()); n == 0 {
		t.Fatal("Repair did nothing")
	}
	for _, id := range devs {
		if _, err := c.Node(id).Head("obj"); err != nil {
			t.Fatalf("primary %d missing object after repair: %v", id, err)
		}
	}
	if got := countHandoffCopies(); got != 0 {
		t.Fatalf("handoff copies after repair = %d, want 0", got)
	}
	data, _, err := c.Get(ctx, "obj")
	if err != nil || string(data) != "diverted" {
		t.Fatalf("Get after handback = %q, %v", data, err)
	}
}

func TestDelete(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	mustPut(t, c, ctx, "obj", []byte("xyz"), nil)
	if err := c.Delete(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ctx, "obj"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	if err := c.Delete(ctx, "obj"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
	st := c.Stats()
	if st.Objects != 0 || st.Bytes != 0 {
		t.Fatalf("Stats after delete: %+v", st)
	}
}

func TestServerSideCopy(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	mustPut(t, c, ctx, "src", []byte("payload"), map[string]string{"a": "1"})
	if err := c.Copy(ctx, "src", "dst"); err != nil {
		t.Fatal(err)
	}
	data, info, err := c.Get(ctx, "dst")
	if err != nil || string(data) != "payload" || info.Meta["a"] != "1" {
		t.Fatalf("copy result: %q %v %v", data, info.Meta, err)
	}
	if err := c.Copy(ctx, "missing", "x"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("copy missing = %v", err)
	}
	st := c.Stats()
	if st.Objects != 2 || st.Bytes != 14 {
		t.Fatalf("Stats after copy: %+v", st)
	}
}

func TestStatsCounters(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	mustPut(t, c, ctx, "a", []byte("12"), nil)
	if _, _, err := c.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	c.Head(ctx, "a")
	c.Copy(ctx, "a", "b")
	if err := c.Delete(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.Heads != 1 || st.Copies != 1 || st.Deletes != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.Objects != 1 || st.Bytes != 2 {
		t.Fatalf("usage: %+v", st)
	}
	c.ResetCounters()
	st = c.Stats()
	if st.Puts != 0 || st.Objects != 1 {
		t.Fatalf("after reset: %+v", st)
	}
}

func TestOverwriteKeepsLogicalCount(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	mustPut(t, c, ctx, "a", make([]byte, 100), nil)
	mustPut(t, c, ctx, "a", make([]byte, 10), nil)
	st := c.Stats()
	if st.Objects != 1 || st.Bytes != 10 {
		t.Fatalf("Stats = %+v, want 1 object of 10 bytes", st)
	}
}

func TestCostCharging(t *testing.T) {
	c, err := New(Config{Profile: SwiftProfile()})
	if err != nil {
		t.Fatal(err)
	}
	tr := vclock.NewTracker()
	ctx := vclock.With(context.Background(), tr)
	mustPut(t, c, ctx, "a", make([]byte, 2048), nil)
	p := SwiftProfile()
	want := p.Put + 2*p.PerKB
	if got := tr.Elapsed(); got != want {
		t.Fatalf("Put charged %v, want %v", got, want)
	}
	tr.Reset()
	if _, _, err := c.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	want = p.Get + 2*p.PerKB
	if got := tr.Elapsed(); got != want {
		t.Fatalf("Get charged %v, want %v", got, want)
	}
	tr.Reset()
	c.Head(ctx, "a")
	if got := tr.Elapsed(); got != p.Head {
		t.Fatalf("Head charged %v, want %v", got, p.Head)
	}
}

func TestRepairRestoresMissingReplica(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	devs := c.Ring().Devices("obj")
	c.SetNodeDown(devs[0], true)
	if err := c.Put(ctx, "obj", []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	c.SetNodeDown(devs[0], false)
	if _, err := c.Node(devs[0]).Head("obj"); err == nil {
		t.Fatal("node unexpectedly has the object before repair")
	}
	if n := c.Repair(context.Background()); n == 0 {
		t.Fatal("Repair reported no work")
	}
	if _, err := c.Node(devs[0]).Head("obj"); err != nil {
		t.Fatalf("replica still missing after repair: %v", err)
	}
	// Repair is idempotent.
	if n := c.Repair(context.Background()); n != 0 {
		t.Fatalf("second Repair wrote %d copies, want 0", n)
	}
}

func TestRepairPrefersNewest(t *testing.T) {
	now := time.Unix(1000, 0)
	c, err := New(Config{Profile: ZeroProfile(), Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mustPut(t, c, ctx, "obj", []byte("old"), nil)
	devs := c.Ring().Devices("obj")
	c.SetNodeDown(devs[0], true)
	now = now.Add(time.Minute)
	mustPut(t, c, ctx, "obj", []byte("new"), nil)
	c.SetNodeDown(devs[0], false)
	c.Repair(context.Background())
	data, _, err := c.Node(devs[0]).Get("obj")
	if err != nil || string(data) != "new" {
		t.Fatalf("repaired replica = %q, %v; want \"new\"", data, err)
	}
}

func TestDegradedGetTriggersReadRepair(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	devs := c.Ring().Devices("obj")
	// Write with the first primary down, then bring it back: the copy is
	// missing there, so a Get falls through to the second primary.
	c.SetNodeDown(devs[0], true)
	mustPut(t, c, ctx, "obj", []byte("x"), nil)
	c.SetNodeDown(devs[0], false)
	data, _, err := c.Get(ctx, "obj")
	if err != nil || string(data) != "x" {
		t.Fatalf("degraded Get = %q, %v", data, err)
	}
	st := c.Stats()
	if st.DegradedGets != 1 {
		t.Fatalf("DegradedGets = %d, want 1", st.DegradedGets)
	}
	if st.ReadRepairs == 0 {
		t.Fatal("degraded Get performed no read-repair")
	}
	// The fallback read healed the first primary in passing.
	if _, err := c.Node(devs[0]).Head("obj"); err != nil {
		t.Fatalf("replica not repaired by degraded read: %v", err)
	}
	// A healthy Get afterwards is not degraded and repairs nothing more.
	before := st
	if _, _, err := c.Get(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.DegradedGets != before.DegradedGets || st.ReadRepairs != before.ReadRepairs {
		t.Fatalf("healthy Get changed degradation counters: %+v -> %+v", before, st)
	}
}

func TestConfigDefaults(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Ring().DeviceIDs()); got != 8 {
		t.Fatalf("default nodes = %d, want 8", got)
	}
	if got := c.Ring().ReplicaCount(); got != 3 {
		t.Fatalf("default replicas = %d, want 3", got)
	}
}

func BenchmarkClusterPut(b *testing.B) {
	c, _ := New(Config{Profile: ZeroProfile()})
	ctx := context.Background()
	data := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(ctx, "bench-object", data, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterGet(b *testing.B) {
	c, _ := New(Config{Profile: ZeroProfile()})
	ctx := context.Background()
	mustPut(b, c, ctx, "bench-object", make([]byte, 256), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Get(ctx, "bench-object"); err != nil {
			b.Fatal(err)
		}
	}
}

// A miss on a key renders exactly what fmt.Errorf("cluster: <op> %q: %w")
// rendered and unwraps to the same sentinel; the key is quoted the way %q
// quotes it, control and non-UTF-8 bytes included.
func TestMissErrorTextAndSentinel(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	for _, name := range []string{"nope", "alice|N97::/NameRing/.Node01.Patch000003", "q\"uo\\te\n\x00", "café\xff"} {
		ops := map[string]func() error{
			"get":       func() error { _, _, err := c.Get(ctx, name); return err },
			"get range": func() error { _, _, err := c.GetRange(ctx, name, 0, -1); return err },
			"head":      func() error { _, err := c.Head(ctx, name); return err },
			"delete":    func() error { return c.Delete(ctx, name) },
			"copy":      func() error { return c.Copy(ctx, name, "dst") },
		}
		for op, call := range ops {
			err := call()
			want := fmt.Errorf("cluster: "+op+" %q: %w", name, objstore.ErrNotFound)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s %q: text %q, want %q", op, name, err, want)
			}
			if !errors.Is(err, objstore.ErrNotFound) || errors.Is(err, objstore.ErrNodeDown) {
				t.Errorf("%s %q: errors.Is misreports %v", op, name, err)
			}
			var ke *keyError
			if !errors.As(err, &ke) || ke.op != op || ke.name != name {
				t.Errorf("%s %q: errors.As gave %+v", op, name, ke)
			}
		}
	}
}

// With every replica down the last replica error is what a miss wraps.
func TestMissErrorWrapsLastReplicaError(t *testing.T) {
	c := newTest(t)
	for _, n := range c.allNodes() {
		n.SetDown(true)
	}
	_, err := c.Head(context.Background(), "k")
	want := fmt.Errorf("cluster: head %q: %w", "k", objstore.ErrNodeDown)
	if err == nil || err.Error() != want.Error() || !errors.Is(err, objstore.ErrNodeDown) || errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("Head with all nodes down = %v, want %v", err, want)
	}
}

// COPY diverts to handoff nodes exactly as PUT does: with two of dst's
// three primaries down both still reach quorum.
func TestCopyDivertsToHandoffsLikePut(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	mustPut(t, c, ctx, "src", []byte("hello"), nil)
	devs := c.Ring().Devices("dst")
	c.SetNodeDown(devs[0], true)
	c.SetNodeDown(devs[1], true)
	mustPut(t, c, ctx, "dst", []byte("zz"), nil)
	if err := c.Copy(ctx, "src", "dst"); err != nil {
		t.Fatalf("Copy with two of dst's primaries down = %v; Put succeeded", err)
	}
	if data, _, err := c.Get(ctx, "dst"); err != nil || string(data) != "hello" {
		t.Fatalf("Get after diverted copy = %q, %v", data, err)
	}
	if st := c.Stats(); st.Objects != 2 || st.Bytes != 10 {
		t.Fatalf("Stats = %+v, want 2 objects of 10 bytes", st)
	}
}

// COPY probes the whole read sequence for the version it replaces: a dst
// whose only copies sit on handoff nodes is overwritten, not counted anew.
func TestCopyOverHandoffOnlyObjectIsAnOverwrite(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	mustPut(t, c, ctx, "src", []byte("hello"), nil)
	devs := c.Ring().Devices("dst")
	for _, id := range devs {
		c.SetNodeDown(id, true)
	}
	mustPut(t, c, ctx, "dst", []byte("zz"), nil) // lands on three handoffs
	for _, id := range devs {
		c.SetNodeDown(id, false)
	}
	if err := c.Copy(ctx, "src", "dst"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Objects != 2 || st.Bytes != 10 {
		t.Fatalf("Stats = %+v, want 2 objects of 10 bytes", st)
	}
}

// replicaCopies reads name from every node that holds it, primaries and
// handoffs alike.
func replicaCopies(t *testing.T, c *Cluster, name string) map[int]string {
	t.Helper()
	out := map[int]string{}
	for _, n := range c.readSequence(name) {
		if data, _, err := n.Get(name); err == nil {
			out[n.ID()] = string(data)
		}
	}
	return out
}

// The replicas of one write share one sealed value, so nothing a caller
// holds may alias it: not the buffer and map it wrote from, not the buffer
// a read handed it.
func TestStoredVersionAliasesNoCallerMemory(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	data, meta := []byte("content"), map[string]string{"k": "v"}
	mustPut(t, c, ctx, "obj", data, meta)
	data[0], meta["k"], meta["new"] = 'X', "changed", "1"
	check := func(when string) {
		t.Helper()
		copies := replicaCopies(t, c, "obj")
		if len(copies) != c.Ring().ReplicaCount() {
			t.Fatalf("%s: %d replicas hold the object", when, len(copies))
		}
		for id, got := range copies {
			if got != "content" {
				t.Fatalf("%s: node %d holds %q", when, id, got)
			}
		}
		info, err := c.Head(ctx, "obj")
		if err != nil || len(info.Meta) != 1 || info.Meta["k"] != "v" || info.ETag != objstore.ETag([]byte("content")) {
			t.Fatalf("%s: Head = %+v, %v", when, info, err)
		}
	}
	check("after the writer reused its buffer and map")
	got, _, err := c.Get(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = '!'
	}
	check("after a reader scribbled on what Get returned")
	part, _, err := c.GetRange(ctx, "obj", 2, 3)
	if err != nil || string(part) != "nte" {
		t.Fatalf("GetRange = %q, %v", part, err)
	}
	part[0] = '!'
	check("after a reader scribbled on what GetRange returned")
}

// A server-side copy shares the source's bytes and is still its own
// object: its header is the copy's, and the source's later fate is not.
func TestCopyIsIndependentOfItsSource(t *testing.T) {
	now := time.Unix(1000, 0)
	c, err := New(Config{Profile: ZeroProfile(), Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mustPut(t, c, ctx, "src", []byte("payload"), map[string]string{"a": "1"})
	srcInfo, err := c.Head(ctx, "src")
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute)
	if err := c.Copy(ctx, "src", "dst"); err != nil {
		t.Fatal(err)
	}
	checkDst := func(when string) {
		t.Helper()
		data, info, err := c.Get(ctx, "dst")
		if err != nil || string(data) != "payload" {
			t.Fatalf("%s: dst = %q, %v", when, data, err)
		}
		if info.Name != "dst" || info.Size != 7 || info.ETag != objstore.ETag([]byte("payload")) ||
			!info.LastModified.Equal(time.Unix(1060, 0)) || len(info.Meta) != 1 || info.Meta["a"] != "1" {
			t.Fatalf("%s: dst header = %+v", when, info)
		}
	}
	checkDst("after the copy")
	if again, err := c.Head(ctx, "src"); err != nil || again.Name != "src" || !again.LastModified.Equal(srcInfo.LastModified) {
		t.Fatalf("the copy re-stamped its source: %+v, %v", again, err)
	}
	now = now.Add(time.Minute)
	mustPut(t, c, ctx, "src", []byte("rewritten"), map[string]string{"a": "2"})
	checkDst("after src was overwritten")
	if err := c.Delete(ctx, "src"); err != nil {
		t.Fatal(err)
	}
	checkDst("after src was deleted")
}

// Both healing paths push the stored version as it stands: a degraded
// read's read-repair and an anti-entropy pass leave every primary with the
// header — ETag and LastModified above all, which the next comparison
// reads — that the healthy replicas already held.
func TestHealingKeepsTheVersionHeader(t *testing.T) {
	heal := map[string]func(*Cluster){
		"read-repair": func(c *Cluster) {
			if _, _, err := c.Get(context.Background(), "obj"); err != nil {
				t.Fatal(err)
			}
		},
		"Repair": func(c *Cluster) { c.Repair(context.Background()) },
	}
	for name, run := range heal {
		now := time.Unix(1000, 0)
		c, err := New(Config{Profile: ZeroProfile(), Clock: func() time.Time { return now }})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		devs := c.Ring().Devices("obj")
		c.SetNodeDown(devs[0], true)
		mustPut(t, c, ctx, "obj", []byte("v1"), map[string]string{"k": "v"})
		want, err := c.Node(devs[1]).Head("obj")
		if err != nil {
			t.Fatal(err)
		}
		c.SetNodeDown(devs[0], false)
		now = now.Add(time.Hour) // healing must not read the clock
		run(c)
		for _, id := range devs {
			data, info, err := c.Node(id).Get("obj")
			if err != nil || string(data) != "v1" {
				t.Fatalf("%s: primary %d holds %q, %v", name, id, data, err)
			}
			if info.Name != "obj" || info.ETag != want.ETag || !info.LastModified.Equal(want.LastModified) || info.Meta["k"] != "v" {
				t.Fatalf("%s: primary %d header %+v, want %+v", name, id, info, want)
			}
		}
	}
}

// One store request seals its payload once: a 3-replica PUT of 1 MiB
// allocates one copy of it (three at the parent of this test), and a COPY
// of it a header and no bytes (four copies).
func TestPutCopiesThePayloadOnceAndCopyNever(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	big := make([]byte, 1<<20)
	put := func() { mustPut(t, c, ctx, "big", big, nil) }
	if b := fstest.AllocBytesPerRun(5, put); b >= 11<<20/10 {
		t.Fatalf("Put of 1 MiB on %d replicas allocates %d B, want < 1.1 MiB", c.Ring().ReplicaCount(), b)
	}
	cp := func() {
		if err := c.Copy(ctx, "big", "big.copy"); err != nil {
			t.Fatal(err)
		}
	}
	if b := fstest.AllocBytesPerRun(5, cp); b >= 1<<10 {
		t.Fatalf("Copy of 1 MiB allocates %d B, want < 1 KiB", b)
	}
}

// Under -race this is the guard for the sharing rule: writers replace and
// copy an object while readers scribble on everything Get and GetRange
// hand them. Were any of it the stored slice, a reader's write would race
// with a sibling's copy out of the same bytes.
func TestSharedVersionUnderConcurrentReadersAndWriters(t *testing.T) {
	c := newTest(t)
	ctx := context.Background()
	mustPut(t, c, ctx, "obj", []byte("payload-0"), nil)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := c.Put(ctx, "obj", []byte(fmt.Sprintf("payload-%d", w)), nil); err != nil {
					t.Error(err)
				}
				if err := c.Copy(ctx, "obj", "obj.copy"); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			name := []string{"obj", "obj.copy"}[r%2]
			for i := 0; i < 200; i++ {
				data, info, err := c.Get(ctx, name)
				if errors.Is(err, objstore.ErrNotFound) {
					continue // obj.copy before the first COPY
				}
				if err != nil || info.ETag != objstore.ETag(data) {
					t.Errorf("Get %s = %q, %+v, %v", name, data, info, err)
					return
				}
				clear(data)
				part, _, err := c.GetRange(ctx, name, 0, 7)
				if err != nil || string(part) != "payload" {
					t.Errorf("GetRange %s = %q, %v", name, part, err)
					return
				}
				clear(part)
			}
		}(r)
	}
	wg.Wait()
}
