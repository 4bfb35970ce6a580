package main

import "testing"

func TestVirtualtime(t *testing.T) {
	cases := []golden{
		{
			name: "seeded violations caught",
			src: `package core

import "time"

func badNow() time.Time { return time.Now() }
func badSince(start time.Time) time.Duration { return time.Since(start) }
func badSleep() { time.Sleep(time.Millisecond) }
`,
			want: []string{
				"internal/core/src.go:5:34: virtualtime: call to time.Now in simulator package internal/core; charge internal/vclock or use an injected clock",
				"internal/core/src.go:6:55: virtualtime: call to time.Since in simulator package internal/core; charge internal/vclock or use an injected clock",
				"internal/core/src.go:7:19: virtualtime: call to time.Sleep in simulator package internal/core; charge internal/vclock or use an injected clock",
			},
		},
		{
			name: "renamed import still caught",
			src: `package core

import wall "time"

func sneaky() wall.Time { return wall.Now() }
`,
			want: []string{
				"internal/core/src.go:5:34: virtualtime: call to time.Now in simulator package internal/core; charge internal/vclock or use an injected clock",
			},
		},
		{
			name: "injected clock default is a value reference, allowed",
			src: `package core

import "time"

type thing struct{ now func() time.Time }

func newThing() *thing { return &thing{now: time.Now} }
func (t *thing) stamp() time.Time { return t.now() }
`,
			want: nil,
		},
		{
			name: "outside internal is the sanctioned edge",
			file: "cmd/h2cloudd/src.go",
			src: `package main

import "time"

func main() { _ = time.Now() }
`,
			want: nil,
		},
	}
	runGoldens(t, virtualtimeAnalyzer, "internal/core/src.go", nil, cases)
}

// TestBackoffcheck holds the wall-clock backoff shapes: a sleep or timer
// wait inside a retry or poll loop. virtualtime bans these calls anywhere
// in internal/, so a loop needs no rule of its own.
func TestBackoffcheck(t *testing.T) {
	cases := []golden{
		{
			name: "sleep and timer waits in retry loop caught",
			src: `package core

import "time"

func retry(op func() error) error {
	var err error
	for i := 0; i < 4; i++ {
		if err = op(); err == nil {
			return nil
		}
		time.Sleep(time.Duration(i) * time.Millisecond)
		<-time.After(time.Millisecond)
	}
	return err
}
`,
			want: []string{
				"internal/core/src.go:11:3: virtualtime: call to time.Sleep in simulator package internal/core; charge internal/vclock or use an injected clock",
				"internal/core/src.go:12:5: virtualtime: call to time.After in simulator package internal/core; charge internal/vclock or use an injected clock",
			},
		},
		{
			name: "goroutine launched from loop still caught, once",
			src: `package core

import "time"

func poll(ready func() bool) {
	for !ready() {
		for j := 0; j < 2; j++ {
			go func() { time.Sleep(time.Second) }()
		}
	}
}
`,
			want: []string{
				"internal/core/src.go:8:16: virtualtime: call to time.Sleep in simulator package internal/core; charge internal/vclock or use an injected clock",
			},
		},
		{
			name: "timers caught, maintenance ticker allowed",
			src: `package core

import "time"

func timers(f func()) {
	<-time.Tick(time.Second)
	time.NewTimer(time.Second).Stop()
	time.AfterFunc(time.Second, f).Stop()
}

func run(stop chan struct{}, tick func()) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			tick()
		}
	}
}
`,
			want: []string{
				"internal/core/src.go:6:4: virtualtime: call to time.Tick in simulator package internal/core; charge internal/vclock or use an injected clock",
				"internal/core/src.go:7:2: virtualtime: call to time.NewTimer in simulator package internal/core; charge internal/vclock or use an injected clock",
				"internal/core/src.go:8:2: virtualtime: call to time.AfterFunc in simulator package internal/core; charge internal/vclock or use an injected clock",
			},
		},
		{
			name: "outside internal is the sanctioned edge",
			file: "cmd/h2cloudd/src.go",
			src: `package main

import "time"

func spin() {
	for {
		time.Sleep(time.Second)
	}
}
`,
			want: nil,
		},
	}
	runGoldens(t, virtualtimeAnalyzer, "internal/core/src.go", nil, cases)
}
