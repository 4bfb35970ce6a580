package main

import (
	"go/ast"
	"go/token"
	"strings"
)

var backoffcheckAnalyzer = &Analyzer{
	Name: "backoffcheck",
	Doc:  "no time.Sleep/time.After/timer waits inside loops in internal/ packages; charge backoff to internal/vclock",
	Run:  runBackoffcheck,
	Long: `backoffcheck enforces the retry-path half of the virtual-clock
rule: a retry or polling loop inside internal/ must never wait on the
wall clock. Backoff belongs on the virtual clock (vclock.Charge), where
it is charged to the simulated service time and two same-seed runs stay
byte-identical; a real time.Sleep (or a timer wait) in a loop both
stalls the test suite and hides the backoff cost from every figure.

Flagged: calls to time.Sleep, time.After, time.Tick, time.NewTimer, and
time.AfterFunc lexically inside a for/range statement (including inside
function literals launched from the loop). time.NewTicker is allowed —
long-lived maintenance tickers (gossip, repair) are driver-side idiom,
not per-attempt backoff. _test.go files are exempt.`,
}

// loopWaitFuncs are the package time functions that block on (or schedule
// against) the wall clock, per-call.
var loopWaitFuncs = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"AfterFunc": true,
}

func runBackoffcheck(p *Pass) {
	if !strings.HasPrefix(p.RelPkgPath(), "internal/") {
		return
	}
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		reported := map[token.Pos]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				p.checkLoopBody(f, n, reported)
			}
			return true
		})
	}
}

// checkLoopBody flags wall-clock waits anywhere under loop, deduplicating
// calls already reported from an enclosing loop.
func (p *Pass) checkLoopBody(f *ast.File, loop ast.Node, reported map[token.Pos]bool) {
	ast.Inspect(loop, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if !loopWaitFuncs[name] || p.pkgQualifier(f, call) != "time" {
			return true
		}
		if reported[call.Pos()] {
			return true
		}
		reported[call.Pos()] = true
		p.Reportf(call.Pos(), "call to time.%s inside a loop in simulator package %s; charge backoff to internal/vclock (vclock.Charge), never the wall clock", name, p.RelPkgPath())
		return true
	})
}
