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
