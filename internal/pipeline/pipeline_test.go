package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// charged runs fn under a fresh tracker and returns the virtual time it
// accumulated.
func charged(fn func(ctx context.Context)) time.Duration {
	tr := vclock.NewTracker()
	fn(vclock.With(context.Background(), tr))
	return tr.Elapsed()
}

func TestWaitChargesMakespan(t *testing.T) {
	// 8 equal tasks on 4 workers: two rounds, not an 8-task sum.
	got := charged(func(ctx context.Context) {
		eng := New(ctx, 4)
		for i := 0; i < 8; i++ {
			i := i
			eng.Go(fmt.Sprintf("t%d", i), func(ctx context.Context) error {
				vclock.Charge(ctx, 10*time.Millisecond)
				return nil
			})
		}
		if err := eng.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 20*time.Millisecond {
		t.Fatalf("4-worker makespan = %v, want 20ms", got)
	}
}

func TestSequentialEngineChargesSum(t *testing.T) {
	got := charged(func(ctx context.Context) {
		eng := New(ctx, 1)
		for i := 0; i < 8; i++ {
			i := i
			eng.Go(fmt.Sprintf("t%d", i), func(ctx context.Context) error {
				vclock.Charge(ctx, 10*time.Millisecond)
				return nil
			})
		}
		if err := eng.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 80*time.Millisecond {
		t.Fatalf("sequential charge = %v, want the 80ms sum", got)
	}
}

func TestTasksMaySpawnTasks(t *testing.T) {
	var ran atomic.Int64
	eng := New(context.Background(), 3)
	for i := 0; i < 4; i++ {
		i := i
		eng.Go(fmt.Sprintf("outer%d", i), func(context.Context) error {
			ran.Add(1)
			for j := 0; j < 4; j++ {
				j := j
				eng.Go(fmt.Sprintf("inner%d.%d", i, j), func(context.Context) error {
					ran.Add(1)
					return nil
				})
			}
			return nil
		})
	}
	if err := eng.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 20 {
		t.Fatalf("ran %d tasks, want 20", ran.Load())
	}
}

func TestWaitReportsSmallestLabelDeterministically(t *testing.T) {
	errB := errors.New("b failed")
	errD := errors.New("d failed")
	for run := 0; run < 25; run++ {
		eng := New(context.Background(), 8)
		for _, lbl := range []string{"a", "b", "c", "d"} {
			lbl := lbl
			eng.Go(lbl, func(context.Context) error {
				switch lbl {
				case "b":
					return errB
				case "d":
					return errD
				}
				return nil
			})
		}
		if err := eng.Wait(); !errors.Is(err, errB) {
			t.Fatalf("run %d: Wait = %v, want the smallest-label failure %v", run, err, errB)
		}
	}
}

func TestGroupFinalizerRunsAfterMembers(t *testing.T) {
	var members atomic.Int64
	var sawAtFin int64 = -1
	eng := New(context.Background(), 2)
	g := eng.NewGroup(nil, "g", func(context.Context) error {
		sawAtFin = members.Load()
		return nil
	})
	g.Go("seed", func(context.Context) error {
		defer g.Close()
		for i := 0; i < 6; i++ {
			g.Go(fmt.Sprintf("m%d", i), func(context.Context) error {
				members.Add(1)
				return nil
			})
		}
		return nil
	})
	if err := eng.Wait(); err != nil {
		t.Fatal(err)
	}
	if sawAtFin != 6 {
		t.Fatalf("finalizer saw %d finished members, want 6", sawAtFin)
	}
}

func TestMemberFailureSkipsFinalizersUpTheChain(t *testing.T) {
	boom := errors.New("boom")
	var finRan atomic.Int64
	eng := New(context.Background(), 2)
	outer := eng.NewGroup(nil, "outer", func(context.Context) error {
		finRan.Add(1)
		return nil
	})
	outer.Go("seed", func(context.Context) error {
		defer outer.Close()
		inner := eng.NewGroup(outer, "outer/inner", func(context.Context) error {
			finRan.Add(1)
			return nil
		})
		inner.Go("seed", func(context.Context) error {
			defer inner.Close()
			inner.Go("outer/inner/bad", func(context.Context) error { return boom })
			return nil
		})
		return nil
	})
	if err := eng.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want %v", err, boom)
	}
	if finRan.Load() != 0 {
		t.Fatalf("%d finalizers ran despite a nested failure", finRan.Load())
	}
}

func TestSiblingGroupUnaffectedByFailure(t *testing.T) {
	boom := errors.New("boom")
	var goodFin atomic.Int64
	eng := New(context.Background(), 2)
	bad := eng.NewGroup(nil, "bad", func(context.Context) error {
		t.Error("failed group's finalizer ran")
		return nil
	})
	bad.Go("bad/task", func(context.Context) error {
		defer bad.Close()
		return boom
	})
	good := eng.NewGroup(nil, "good", func(context.Context) error {
		goodFin.Add(1)
		return nil
	})
	good.Go("good/task", func(context.Context) error {
		defer good.Close()
		return nil
	})
	if err := eng.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want %v", err, boom)
	}
	if goodFin.Load() != 1 {
		t.Fatal("sibling group's finalizer did not run")
	}
}

func TestFinalizerFailurePropagates(t *testing.T) {
	finErr := errors.New("finalizer failed")
	eng := New(context.Background(), 1)
	outer := eng.NewGroup(nil, "outer", func(context.Context) error {
		t.Error("outer finalizer ran despite inner finalizer failure")
		return nil
	})
	outer.Go("seed", func(context.Context) error {
		defer outer.Close()
		inner := eng.NewGroup(outer, "outer/inner", func(context.Context) error { return finErr })
		inner.Go("outer/inner/task", func(context.Context) error {
			defer inner.Close()
			return nil
		})
		return nil
	})
	if err := eng.Wait(); !errors.Is(err, finErr) {
		t.Fatalf("Wait = %v, want %v", err, finErr)
	}
}

func TestFinalizerCostIsCharged(t *testing.T) {
	got := charged(func(ctx context.Context) {
		eng := New(ctx, 1)
		g := eng.NewGroup(nil, "g", func(ctx context.Context) error {
			vclock.Charge(ctx, 7*time.Millisecond)
			return nil
		})
		g.Go("m", func(ctx context.Context) error {
			defer g.Close()
			vclock.Charge(ctx, 5*time.Millisecond)
			return nil
		})
		if err := eng.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 12*time.Millisecond {
		t.Fatalf("charged %v, want 12ms (member + finalizer)", got)
	}
}

// goid returns the running goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// At workers = 1 the engine starts no goroutine: every task — spawned
// children and the finalizer included — runs on the goroutine that called
// Wait, in submission order.
func TestOneWorkerRunsOnTheCallerInSubmissionOrder(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	base := runtime.NumGoroutine()
	caller := goid()
	var order []string // unsynchronised on purpose: one goroutine touches it
	eng := New(context.Background(), 1)
	note := func(name string) {
		if id := goid(); id != caller {
			t.Errorf("task %s ran on goroutine %s, Wait was called on %s", name, id, caller)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("task %s sees %d goroutines, %d before New", name, n, base)
		}
		order = append(order, name)
	}
	g := eng.NewGroup(nil, "g", func(context.Context) error { note("g.fin"); return nil })
	g.Go("a", func(context.Context) error {
		defer g.Close()
		note("a")
		g.Go("a1", func(context.Context) error { note("a1"); return nil })
		g.GoChild("a2", "", func(context.Context) error { note("a2"); return nil })
		return nil
	})
	eng.Go("b", func(context.Context) error {
		note("b")
		eng.Go("b1", func(context.Context) error { note("b1"); return nil })
		return nil
	})
	if len(order) != 0 {
		t.Fatalf("tasks %v ran before Wait", order)
	}
	if err := eng.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "a1", "a2", "b1", "g.fin"}; !slices.Equal(order, want) {
		t.Fatalf("ran %v, want submission order %v", order, want)
	}
}

// The termination rule: a runner with nothing queued parks while any task
// is still running, because that task may yet submit more. One long task
// keeps the other three runners idle, then spawns 200 children and stays
// on its own runner until three of them run at once — which only the
// three helpers can do.
func TestIdleHelpersOutliveARunningTask(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	const workers, children = 4, 200
	var ran atomic.Int64
	entered := make(chan struct{}, children)
	release := make(chan struct{})
	eng := New(context.Background(), workers)
	eng.Go("long", func(context.Context) error {
		for i := 0; i < 1000; i++ {
			runtime.Gosched() // let the helpers start, find the queue empty, and park
		}
		for i := 0; i < children; i++ {
			eng.Go(fmt.Sprintf("child%03d", i), func(context.Context) error {
				entered <- struct{}{}
				<-release
				ran.Add(1)
				return nil
			})
		}
		defer close(release)
		for i := 0; i < workers-1; i++ {
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Errorf("only %d children started while the long task held its runner: a helper exited early", i)
				return nil
			}
		}
		return nil
	})
	if err := eng.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != children {
		t.Fatalf("ran %d children, want %d", ran.Load(), children)
	}
}

// chargeTree submits a fixed task set with fixed charges: three groups,
// each an expanding task that spawns children and subgroups late, every
// finalizer charging too. 39 tasks, 777 ms in total.
func chargeTree(eng *Engine) {
	ms := func(n int) func(context.Context) error {
		return func(ctx context.Context) error {
			vclock.Charge(ctx, time.Duration(n)*time.Millisecond)
			return nil
		}
	}
	for i := 0; i < 3; i++ {
		i := i
		top := fmt.Sprintf("d%d", i)
		g := eng.NewGroup(nil, top, ms(5+i))
		g.Go(top+"\x00expand", func(ctx context.Context) error {
			defer g.Close()
			vclock.Charge(ctx, 40*time.Millisecond)
			for j := 0; j < 8; j++ {
				g.Go(fmt.Sprintf("%s/f%d", top, j), ms(3*j*(i+1))) // j = 0 charges nothing
			}
			sub := eng.NewGroup(g, top+"/sub", ms(11))
			sub.Go(top+"/sub\x00expand", func(ctx context.Context) error {
				defer sub.Close()
				vclock.Charge(ctx, 25*time.Millisecond)
				sub.Go(top+"/sub/leaf", ms(9))
				return nil
			})
			return nil
		})
	}
}

// Wait charges the LPT makespan of the per-task costs. The values are
// pinned from the goroutine-per-task engine this one replaced, which gave
// every task its own tracker: a runner that carries one tracker across
// tasks must hand Makespan the same multiset.
func TestWaitChargeMatchesPerTaskTrackers(t *testing.T) {
	for _, c := range []struct {
		workers int
		want    time.Duration
	}{
		{1, 777 * time.Millisecond},
		{4, 195 * time.Millisecond},
		{16, 63 * time.Millisecond},
	} {
		fstest.AssertNoGoroutineLeak(t)
		got := charged(func(ctx context.Context) {
			eng := New(ctx, c.workers)
			chargeTree(eng)
			if err := eng.Wait(); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("workers = %d: charged %v, want %v", c.workers, got, c.want)
		}
	}
}

// A label given as parts joins to the same string a caller would have
// concatenated, so the smallest-label rule orders both forms together.
func TestChildLabelsJoinOnFailure(t *testing.T) {
	errs := map[string]error{}
	for _, l := range []string{"g/a\x00dir", "g/b", "g\x00expand", "g/a"} {
		errs[l] = errors.New(l)
	}
	fail := func(l string) func(context.Context) error {
		return func(context.Context) error { return errs[l] }
	}
	run := func(submit func(g *Group)) error {
		eng := New(context.Background(), 4)
		g := eng.NewGroup(nil, "g", nil)
		submit(g)
		g.Close()
		return eng.Wait()
	}
	if err := run(func(g *Group) {
		g.Go("g/b", fail("g/b"))
		g.GoChild("a", "\x00dir", fail("g/a\x00dir"))
		g.GoChild("", "\x00expand", fail("g\x00expand"))
	}); err != errs["g\x00expand"] {
		t.Fatalf("Wait = %v, want the \\x00expand failure", err)
	}
	if err := run(func(g *Group) {
		g.Go("g/b", fail("g/b"))
		g.GoChild("a", "\x00dir", fail("g/a\x00dir"))
		g.GoChild("a", "", fail("g/a"))
	}); err != errs["g/a"] {
		t.Fatalf("Wait = %v, want g/a", err)
	}
}
