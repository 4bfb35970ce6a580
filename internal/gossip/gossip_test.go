package gossip

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
)

func TestBroadcastExcludesSender(t *testing.T) {
	b := NewBus()
	got := map[int][]Message{}
	for n := 0; n < 3; n++ {
		n := n
		b.Register(n, func(_ context.Context, m Message) {
			got[n] = append(got[n], m)
		})
	}
	msg := Message{Account: "alice", NS: "N1", Origin: 0, Version: 5}
	b.Broadcast(0, msg)
	if delivered := b.Pump(context.Background()); delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
	if len(got[0]) != 0 {
		t.Fatal("sender received its own broadcast")
	}
	if len(got[1]) != 1 || got[1][0] != msg {
		t.Fatalf("node 1 got %v", got[1])
	}
	if len(got[2]) != 1 {
		t.Fatalf("node 2 got %v", got[2])
	}
}

func TestPumpDrainsForwardedMessages(t *testing.T) {
	b := NewBus()
	var forwards int
	b.Register(0, func(context.Context, Message) {})
	b.Register(1, func(ctx context.Context, m Message) {
		if forwards < 1 {
			forwards++
			b.Broadcast(1, m) // put it forward once
		}
	})
	b.Register(2, func(context.Context, Message) {})
	b.Broadcast(0, Message{NS: "N1"})
	delivered := b.Pump(context.Background())
	// 0 -> {1,2} = 2, then 1 -> {0,2} = 2.
	if delivered != 4 {
		t.Fatalf("delivered %d, want 4", delivered)
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d after pump", b.Pending())
	}
}

func TestPendingCounts(t *testing.T) {
	b := NewBus()
	b.Register(0, func(context.Context, Message) {})
	b.Register(1, func(context.Context, Message) {})
	b.Broadcast(0, Message{})
	if b.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", b.Pending())
	}
	b.Pump(context.Background())
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", b.Pending())
	}
}

func TestUnregisteredNodeIgnored(t *testing.T) {
	b := NewBus()
	b.Register(0, func(context.Context, Message) {})
	// No other nodes: broadcast delivers nothing, and must not panic.
	b.Broadcast(0, Message{})
	if n := b.Pump(context.Background()); n != 0 {
		t.Fatalf("delivered %d, want 0", n)
	}
}

func TestZeroValueBusReady(t *testing.T) {
	var b Bus
	var got []int64
	b.Register(1, func(_ context.Context, m Message) { got = append(got, m.Version) })
	b.Broadcast(0, Message{Version: 7})
	if n := b.Pump(context.Background()); n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("got %v, want [7]", got)
	}
	b.Close()
	b.Broadcast(0, Message{Version: 8})
	if b.Pending() != 0 {
		t.Fatal("broadcast after Close was queued")
	}
}

func TestBroadcastFanOutDeterministic(t *testing.T) {
	// Registration order is scrambled; delivery must still be ascending
	// node order, independent of map hash seeding.
	b := NewBus()
	var order []int
	for _, n := range []int{3, 1, 4, 0, 2} {
		n := n
		b.Register(n, func(context.Context, Message) { order = append(order, n) })
	}
	b.Broadcast(0, Message{NS: "N"})
	b.Pump(context.Background())
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("delivered to %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
}

func TestRunDeliversInBackground(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	b := NewBus()
	var mu sync.Mutex
	var count int
	b.Register(0, func(context.Context, Message) {})
	b.Register(1, func(context.Context, Message) {
		mu.Lock()
		defer mu.Unlock()
		count++
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		b.Run(ctx, 5*time.Millisecond)
		close(done)
	}()
	b.Broadcast(0, Message{NS: "N"})
	read := func() int {
		mu.Lock()
		defer mu.Unlock()
		return count
	}
	deadline := time.After(2 * time.Second)
	for {
		if read() == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("message not delivered by Run")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run leaked: did not return after cancel")
	}
}

func TestRunDrainsQueueOnClose(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	b := NewBus()
	var mu sync.Mutex
	var count int
	for n := 0; n < 3; n++ {
		b.Register(n, func(context.Context, Message) {
			mu.Lock()
			defer mu.Unlock()
			count++
		})
	}
	done := make(chan struct{})
	// A long poll interval: delivery must come from Close's wakeup and
	// final drain, not the ticker.
	go func() {
		b.Run(context.Background(), time.Hour)
		close(done)
	}()
	for i := 0; i < 50; i++ {
		b.Broadcast(i%3, Message{Version: int64(i)})
	}
	b.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close")
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 100 { // 50 broadcasts x 2 receivers
		t.Fatalf("delivered %d, want 100", count)
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", b.Pending())
	}
}

func TestRunDrainsQueueOnCancel(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	b := NewBus()
	var mu sync.Mutex
	var count int
	b.Register(0, func(context.Context, Message) {})
	b.Register(1, func(context.Context, Message) {
		mu.Lock()
		defer mu.Unlock()
		count++
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		b.Run(ctx, time.Hour)
		close(done)
	}()
	for i := 0; i < 10; i++ {
		b.Broadcast(0, Message{Version: int64(i)})
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 10 {
		t.Fatalf("delivered %d, want 10", count)
	}
}

func TestConcurrentBroadcasts(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	count := 0
	for n := 0; n < 4; n++ {
		b.Register(n, func(context.Context, Message) {
			mu.Lock()
			defer mu.Unlock()
			count++
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Broadcast(i%4, Message{Version: int64(i)})
		}(i)
	}
	wg.Wait()
	delivered := b.Pump(context.Background())
	if delivered != 30 { // 10 broadcasts x 3 receivers
		t.Fatalf("delivered %d, want 30", delivered)
	}
	if count != 30 {
		t.Fatalf("handled %d, want 30", count)
	}
}

// TestStressBroadcastWhileRunning hammers the bus from many goroutines
// while Run concurrently drains, then closes and checks nothing was lost
// and the Run goroutine exited. Run under -race this exercises every
// lock path in the bus.
func TestStressBroadcastWhileRunning(t *testing.T) {
	fstest.AssertNoGoroutineLeak(t)
	const (
		nodes        = 8
		broadcasters = 16
		perSender    = 50
	)
	b := NewBus()
	var mu sync.Mutex
	count := 0
	for n := 0; n < nodes; n++ {
		b.Register(n, func(context.Context, Message) {
			mu.Lock()
			defer mu.Unlock()
			count++
		})
	}
	done := make(chan struct{})
	go func() {
		b.Run(context.Background(), time.Millisecond)
		close(done)
	}()
	var wg sync.WaitGroup
	for s := 0; s < broadcasters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				b.Broadcast(s%nodes, Message{Origin: s, Version: int64(i)})
			}
		}(s)
	}
	wg.Wait()
	b.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run goroutine leaked after Close")
	}
	mu.Lock()
	defer mu.Unlock()
	want := broadcasters * perSender * (nodes - 1)
	if count != want {
		t.Fatalf("delivered %d, want %d", count, want)
	}
}
