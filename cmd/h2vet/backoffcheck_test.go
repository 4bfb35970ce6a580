package main

import "testing"

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
				"internal/core/src.go:11:3: backoffcheck: call to time.Sleep inside a loop in simulator package internal/core; charge backoff to internal/vclock (vclock.Charge), never the wall clock",
				"internal/core/src.go:12:5: backoffcheck: call to time.After inside a loop in simulator package internal/core; charge backoff to internal/vclock (vclock.Charge), never the wall clock",
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
				"internal/core/src.go:8:16: backoffcheck: call to time.Sleep inside a loop in simulator package internal/core; charge backoff to internal/vclock (vclock.Charge), never the wall clock",
			},
		},
		{
			name: "maintenance ticker and loop-free sleep allowed",
			src: `package core

import "time"

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

func settle() { time.Sleep(time.Millisecond) }
`,
			want: nil,
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
	runGoldens(t, backoffcheckAnalyzer, "internal/core/src.go", nil, cases)
}
