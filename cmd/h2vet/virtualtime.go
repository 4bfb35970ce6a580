package main

import (
	"go/ast"
	"strings"
)

var virtualtimeAnalyzer = &Analyzer{
	Name: "virtualtime",
	Doc:  "no time.Now/time.Since/time.Sleep calls inside internal/ packages",
	Run:  runVirtualtime,
	Long: `virtualtime enforces the simulator's virtual-clock rule: code
under internal/ must not read or wait on the wall clock. The paper's
evaluation numbers are simulated operation times accumulated on
internal/vclock, so a stray time.Now() silently corrupts every figure.

Only *calls* are flagged. Storing time.Now as the default of an
injectable func() time.Time field (the sanctioned edge idiom) is a
plain value reference and passes. _test.go files are exempt: tests may
use wall-clock deadlines around the simulated system. Fix by threading
a clock; suppress a deliberate seam with
//h2vet:ignore virtualtime <reason>.`,
}

// wallClockFuncs are the package time functions that read or wait on the
// wall clock.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Sleep": true,
	"Until": true,
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
