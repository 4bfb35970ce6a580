package main

import (
	"strings"
	"testing"
)

// RTA precision goldens: the same program with and without an
// instantiation of the suspect type flips the finding.
func TestRTAPrunesUninstantiatedImplementations(t *testing.T) {
	const base = `package fake

import "sync"

var mu sync.Mutex

type Runner interface{ Run() }

type Good struct{}

func (Good) Run() {}

type Bad struct{}

func (Bad) Run() {
	mu.Lock()
	defer mu.Unlock()
}

func Drive(r Runner) {
	mu.Lock()
	defer mu.Unlock()
	r.Run()
}
`
	cases := []golden{
		{
			// Bad is never instantiated, so RTA drops the r.Run() -> Bad.Run
			// edge and its Lock cannot re-enter the mutex Drive holds.
			name: "uninstantiated impl pruned",
			src:  "package fake\n\nfunc Use() { Drive(Good{}) }\n",
			want: nil,
		},
		{
			name: "instantiated impl keeps the edge",
			src:  "package fake\n\nfunc Use() { Drive(Bad{}) }\n",
			want: []string{
				"internal/fake/impl.go:23:2: lockorder: mutex fake.mu may be re-acquired while already held (same-mutex re-entry deadlocks)",
			},
		},
	}
	runGoldens(t, lockorderAnalyzer, "internal/fake/use.go", map[string]string{"internal/fake/impl.go": base}, cases)
}

// TestRTAStats exercises -explain callgraph's counters on a mini module:
// the CHA graph must strictly exceed the RTA graph when an
// implementation is uninstantiated.
func TestRTAStats(t *testing.T) {
	files := map[string]string{
		"internal/fake/impl.go": `package fake

type Runner interface{ Run() }

type Good struct{}

func (Good) Run() {}

type Bad struct{}

func (Bad) Run() {}

func Spawn(r Runner) { go r.Run() }

func Use() { Spawn(Good{}) }
`,
	}
	prog := buildTestProgram(t, files)
	cha := buildCallGraphMode(prog, true)
	rta := buildCallGraphMode(prog, false)
	if cha.stats.chaEdges <= rta.stats.rtaEdges {
		t.Fatalf("expected CHA edges (%d) > RTA edges (%d)", cha.stats.chaEdges, rta.stats.rtaEdges)
	}
	if rta.stats.instantiated >= rta.stats.named {
		t.Fatalf("expected some uninstantiated type: instantiated %d, named %d", rta.stats.instantiated, rta.stats.named)
	}
	var sb strings.Builder
	explainCallgraph(&sb, prog)
	out := sb.String()
	for _, want := range []string{"edges (CHA)", "edges (RTA)", "pruned", "finding precision"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain callgraph output missing %q:\n%s", want, out)
		}
	}
}

// callgraph is a pseudo-rule: not an analyzer, but -explain must accept
// it and document the CHA->RTA refinement.
func TestExplainCallgraphEntry(t *testing.T) {
	if analyzerByName("callgraph") != nil {
		t.Fatal("callgraph must not be a registered analyzer")
	}
	var sb strings.Builder
	explain(&sb, "callgraph", nil)
	out := sb.String()
	for _, want := range []string{"Rapid Type Analysis", "instantiated"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain(callgraph) missing %q:\n%s", want, out)
		}
	}
}
