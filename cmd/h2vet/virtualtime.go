package main

import (
	"go/ast"
	"strings"
)

var virtualtimeAnalyzer = &Analyzer{
	Name: "virtualtime",
	Doc:  "no wall-clock reads or waits (time.Now, Since, Until, Sleep, After, Tick, NewTimer, AfterFunc) inside internal/ packages",
	Run:  runVirtualtime,
	Long: `virtualtime enforces the simulator's virtual-clock rule: code
under internal/ must not read or wait on the wall clock. The paper's
evaluation numbers are simulated operation times accumulated on
internal/vclock, so a stray time.Now() silently corrupts every figure,
and a retry or polling loop that sleeps (time.Sleep, time.After,
time.Tick, time.NewTimer, time.AfterFunc) both stalls the run and hides
its backoff from every figure: backoff belongs on the virtual clock
(vclock.Charge), where two same-seed runs stay byte-identical.

Only *calls* are flagged. Storing time.Now as the default of an
injectable func() time.Time field (the sanctioned edge idiom) is a
plain value reference and passes. time.NewTicker is allowed: long-lived
maintenance tickers (gossip, repair) are driver-side idiom, not
per-attempt backoff. _test.go files are exempt: tests may use
wall-clock deadlines around the simulated system. Fix by threading a
clock or charging vclock; suppress a deliberate seam with
//h2vet:ignore virtualtime <reason>.`,
}

// wallClockFuncs are the package time functions that read, wait on or
// schedule against the wall clock.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"AfterFunc": true,
}

func runVirtualtime(p *Pass) {
	if !strings.HasPrefix(p.RelPkgPath(), "internal/") {
		return
	}
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if !wallClockFuncs[name] || p.pkgQualifier(f, call) != "time" {
				return true
			}
			p.Reportf(call.Pos(), "call to time.%s in simulator package %s; charge internal/vclock or use an injected clock", name, p.RelPkgPath())
			return true
		})
	}
}
