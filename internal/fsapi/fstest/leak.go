package fstest

import (
	"runtime"
	"testing"
	"time"
)

// AssertNoGoroutineLeak snapshots the goroutine count and, at test
// cleanup, fails the test if the count has not returned to that
// baseline. Every test that starts a goroutine the code under test owns
// (the subtree engine's helpers, the maintenance loop, gossip's Run,
// chaos) calls it first: it is the only guard against a
// worker that outlives its operation — a loop that lost its ctx.Done
// case, a break that leaves the select and not the loop, a range over a
// ticker — so the test must drive the goroutine to its exit.
//
// The grace window uses the real clock on purpose: goroutine shutdown
// is a property of the Go runtime, not of simulated time, and this is
// test scaffolding rather than simulator code.
func AssertNoGoroutineLeak(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		//h2vet:ignore virtualtime real-clock grace window; goroutine shutdown is runtime behavior, not simulated time
		deadline := time.Now().Add(2 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			//h2vet:ignore virtualtime see above: runtime settling, not simulated time
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("goroutine leak: %d goroutines at cleanup, test started with %d\n%s", n, base, buf)
				return
			}
			//h2vet:ignore virtualtime real sleep while polling the runtime for goroutine exit
			time.Sleep(10 * time.Millisecond)
		}
	})
}
