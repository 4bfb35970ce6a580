package main

import (
	"go/ast"
	"strings"
)

var atomiccheckAnalyzer = &Analyzer{
	Name: "atomiccheck",
	Doc:  "no function-style sync/atomic calls in internal/ packages; typed atomics only",
	Run:  runAtomiccheck,
	Long: `atomiccheck bans the function-style sync/atomic API
(atomic.AddInt64(&s.n, 1), atomic.LoadUint64(&s.gen), ...) in non-test
internal/ code. A field updated that way can still be read or written
plainly elsewhere, and the race detector only sees the interleavings a
test happens to schedule. The typed forms (atomic.Int64, atomic.Uint64,
atomic.Bool, atomic.Pointer[T]) are then the only way to write an
atomic, and with them a plain access does not compile: the mixed
atomic/plain race is unrepresentable, and go build is the checker.`,
}

func runAtomiccheck(p *Pass) {
	if !strings.HasPrefix(p.RelPkgPath(), "internal/") {
		return
	}
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && p.pkgQualifier(f, call) == "sync/atomic" {
				p.Reportf(call.Pos(), "function-style atomic.%s leaves the variable open to plain access; declare it as a typed atomic (atomic.Int64, atomic.Bool, ...) and use its methods", calleeName(call))
			}
			return true
		})
	}
}
