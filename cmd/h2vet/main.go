// Command h2vet is H2Cloud's repo-specific static-analysis pass. It
// enforces the determinism and locking invariants the simulator's
// evaluation depends on (DESIGN.md, "Determinism & concurrency
// invariants").
//
// Run `h2vet -list` for the eleven rules, one line each, and
// `h2vet -explain <rule>` for what a rule computes, why the repo cares and
// how to satisfy or suppress it: each analyzer carries that text itself,
// and nothing else restates it. Every rule is something only static
// analysis sees; the bug classes something cheaper already catches —
// goroutine leaks (leak assertions under -race), hot-path allocations
// (allocs/op ceilings), mixed atomic/plain access (the compiler, once
// every atomic is typed), sync.Pool misuse (an allocs/op ceiling and a
// reuse test per pool), data races (fstest's ConcurrentMix cell under
// -race) — are left to those gates (DESIGN.md, "What guards what").
//
// The two lock rules — lockcheck and lockorder — read one lock model
// (lockspan.go). A span opens at Lock, RLock, TryLock or TryRLock.
// A direct Unlock/RUnlock of the same mutex closes it only when it sits
// in the innermost block of the acquisition; a deferred, absent or
// early-exit unlock (`if bad { mu.Unlock(); return }`) leaves it open to
// the end of the function, since on the fallthrough path the mutex is
// still held. Each function literal is a scope of its own.
// All eleven rules report through one path, which applies the one
// table of //h2vet: directives that every rule and deadignore read.
//
// The syntactic rules (virtualtime, mapiter, lockcheck, droppederr,
// backoffcheck, atomiccheck) run per unit; the rest are whole-program:
// h2vet loads and type-checks the entire module once into a shared typed
// universe, builds a call graph over go/types (CHA expansion refined by
// Rapid Type Analysis — run `h2vet -explain callgraph` for the measured
// precision delta), and runs the analyzers over it. ctxcheck traces a
// context's origin through its own fixpoint over local assignments.
//
// h2vet is built only on the standard library (go/ast, go/parser,
// go/types with the source importer), preserving the repo's
// no-external-dependencies rule. A diagnostic can be suppressed with a
// line directive on the flagged line or the line above it:
//
//	//h2vet:ignore <rule> <reason>
//
// Findings can be emitted as JSON (-json) and gated against a committed
// baseline (-baseline h2vet.baseline.json): all findings are printed, but
// only findings absent from the baseline affect the exit code.
//
// Usage: go run ./cmd/h2vet [-rules a,b] [-json] [-baseline file] [patterns...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire form of one diagnostic. The baseline file
// is a JSON array of the same shape; col is ignored when matching against
// a baseline so unrelated edits above a tolerated finding don't re-open
// it (file+rule+msg identifies a finding; line drifts too easily).
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func (f jsonFinding) key() string {
	return f.File + "\x00" + f.Rule + "\x00" + f.Msg
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("h2vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesFlag := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list the available rules and exit")
	debug := fs.Bool("debug", false, "print loader and type-checker warnings")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	baselinePath := fs.String("baseline", "", "JSON baseline file; findings present in it do not affect the exit code")
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
		if analyzerByName(*explainFlag) == nil && *explainFlag != "callgraph" {
			fmt.Fprintf(stderr, "h2vet: unknown rule %q (run h2vet -list)\n", *explainFlag)
			return 2
		}
		// Only callgraph's computed table needs the typed module.
		var prog *Program
		if *explainFlag == "callgraph" {
			patterns := fs.Args()
			if len(patterns) == 0 {
				patterns = []string{"./..."}
			}
			var err error
			prog, _, err = load(patterns)
			if err != nil {
				fmt.Fprintf(stderr, "h2vet: %v\n", err)
				return 2
			}
		}
		explain(stdout, *explainFlag, prog)
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

	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "h2vet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}

	var baselineEntries []jsonFinding
	if *baselinePath != "" {
		baselineEntries, err = loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "h2vet: %v\n", err)
			return 2
		}
	}
	baseline := make(map[string]bool, len(baselineEntries))
	for _, f := range baselineEntries {
		baseline[f.key()] = true
	}
	fresh := 0
	matched := map[string]bool{}
	for _, d := range diags {
		f := jsonFinding{File: d.Pos.Filename, Rule: d.Rule, Msg: d.Msg}
		if baseline[f.key()] {
			matched[f.key()] = true
		} else {
			fresh++
		}
	}
	if known := len(diags) - fresh; known > 0 {
		fmt.Fprintf(stderr, "h2vet: %d finding(s) matched the baseline\n", known)
	}
	stale := staleBaseline(baselineEntries, matched)
	for _, f := range stale {
		fmt.Fprintf(stderr, "h2vet: stale baseline entry: %s: %s: %s\n", f.File, f.Rule, f.Msg)
	}
	if fresh > 0 {
		fmt.Fprintf(stderr, "h2vet: %d new finding(s)\n", fresh)
		return 1
	}
	if len(stale) > 0 {
		fmt.Fprintf(stderr, "h2vet: %d stale baseline entr%s no longer fire%s; prune %s\n",
			len(stale), plural(len(stale), "y", "ies"), plural(len(stale), "s", ""), *baselinePath)
		return 3
	}
	return 0
}

// staleBaseline returns the baseline entries no current finding matched,
// deduplicated, in file order. A stale entry means the tolerated finding
// was fixed: the baseline must be pruned or it will silently re-admit
// the same finding later.
func staleBaseline(entries []jsonFinding, matched map[string]bool) []jsonFinding {
	seen := map[string]bool{}
	var stale []jsonFinding
	for _, f := range entries {
		if k := f.key(); !matched[k] && !seen[k] {
			seen[k] = true
			stale = append(stale, f)
		}
	}
	return stale
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
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

// writeJSON emits the diagnostics as a sorted JSON array ([] when empty).
func writeJSON(w io.Writer, diags []Diagnostic) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Msg: d.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// loadBaseline reads a -json findings file.
func loadBaseline(path string) ([]jsonFinding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var findings []jsonFinding
	if err := json.Unmarshal(data, &findings); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return findings, nil
}
