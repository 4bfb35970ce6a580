// Command h2vet is H2Cloud's repo-specific static-analysis pass. It
// enforces the determinism and locking invariants the simulator's
// evaluation depends on (DESIGN.md, "Determinism & concurrency
// invariants").
//
// Run `h2vet -list` for the nine rules, one line each, and
// `h2vet -explain <rule>` for what a rule computes, why the repo cares and
// how to satisfy or suppress it: each analyzer carries that text itself,
// and nothing else restates it. Every rule is something only static
// analysis sees; the bug classes something cheaper already catches —
// goroutine leaks (leak assertions under -race), hot-path allocations
// (allocs/op ceilings), mixed atomic/plain access (the compiler, once
// every atomic is typed), sync.Pool misuse (an allocs/op ceiling and a
// reuse test per pool), data races (fstest's ConcurrentMix cell under
// -race), a store call on a context that lost its caller's (fstest.Probe
// on every conformance run) — are left to those gates (DESIGN.md, "What
// guards what").
//
// The two lock rules — lockcheck and lockorder — read one lock model
// (lockspan.go). A span opens at Lock, RLock, TryLock or TryRLock.
// A direct Unlock/RUnlock of the same mutex closes it only when it sits
// in the innermost block of the acquisition; a deferred, absent or
// early-exit unlock (`if bad { mu.Unlock(); return }`) leaves it open to
// the end of the function, since on the fallthrough path the mutex is
// still held. Each function literal is a scope of its own.
// All nine rules report through one path, which applies the one
// table of //h2vet:ignore directives that every rule and deadignore read.
//
// The syntactic rules (virtualtime, mapiter, lockcheck, droppederr,
// atomiccheck) run per unit; the rest are whole-program: h2vet loads and
// type-checks the entire module once into a shared typed universe, builds
// one class-hierarchy call graph over go/types (an interface call reaches
// every implementation in the module), and runs the analyzers over it.
//
// h2vet is built only on the standard library (go/ast, go/parser,
// go/types with the source importer), preserving the repo's
// no-external-dependencies rule. A diagnostic can be suppressed with a
// line directive on the flagged line or the line above it:
//
//	//h2vet:ignore <rule> <reason>
//
// It exits 0 when clean, 1 on any finding and 2 on a usage or load error.
//
// Usage: go run ./cmd/h2vet [-rules a,b] [patterns...]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("h2vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesFlag := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list the available rules and exit")
	debug := fs.Bool("debug", false, "print loader and type-checker warnings")
	explainFlag := fs.String("explain", "", "print the long-form documentation for one rule and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := allAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *explainFlag != "" {
		a := analyzerByName(*explainFlag)
		if a == nil {
			fmt.Fprintf(stderr, "h2vet: unknown rule %q (run h2vet -list)\n", *explainFlag)
			return 2
		}
		explain(stdout, a)
		return 0
	}
	if *rulesFlag != "" {
		byName := map[string]*Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var keep []*Analyzer
		for _, r := range splitRules(*rulesFlag) {
			a, ok := byName[r]
			if !ok {
				fmt.Fprintf(stderr, "h2vet: unknown rule %q\n", r)
				return 2
			}
			keep = append(keep, a)
		}
		analyzers = keep
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, warnings, err := load(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "h2vet: %v\n", err)
		return 2
	}
	if *debug {
		for _, w := range warnings {
			fmt.Fprintf(stderr, "h2vet: warning: %s\n", w)
		}
	}

	diags := runAll(prog, analyzers, *rulesFlag != "")

	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "h2vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// runAll runs the per-unit half of each analyzer concurrently across
// units and the whole-program half over the shared typed module, all
// reporting through one reporter. subset records that -rules
// restricted the analyzer set, which limits what deadignore can conclude
// about directives for rules that did not run.
func runAll(prog *Program, analyzers []*Analyzer, subset bool) []Diagnostic {
	rep := newReporter(prog)
	var wg sync.WaitGroup
	for _, u := range prog.units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range analyzers {
				if a.Run != nil {
					a.Run(&Pass{Fset: u.fset, Files: u.files, PkgPath: u.pkgPath, ModulePath: u.module, Info: u.info, rule: a.Name, rep: rep})
				}
			}
		}()
	}
	for _, a := range analyzers {
		if a.RunProgram != nil {
			a.RunProgram(&ProgramPass{Prog: prog, rule: a.Name, rep: rep})
		}
	}
	wg.Wait()
	return rep.finish(analyzers, subset)
}
