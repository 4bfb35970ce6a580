package main

import (
	"go/ast"
	"go/types"
	"strings"
)

var lockcheckAnalyzer = &Analyzer{
	Name: "lockcheck",
	Doc:  "Lock paired with defer Unlock; no handler/Broadcast calls under a lock",
	Run:  runLockcheck,
	Long: `lockcheck enforces two locking invariants:

 1. every acquisition — mu.Lock(), mu.RLock(), and mu.TryLock() or
    mu.TryRLock(), whose success holds the mutex just the same — must
    be paired with a defer mu.Unlock()/defer mu.RUnlock() on the same
    mutex in the same function — explicit unlock threading leaks locks
    on early returns and panics; narrow the critical section into a
    helper whose whole body holds the lock (a TryLock in a loop too);
 2. no calls to function *values* (handlers, callbacks, struct fields
    of func type) and no Broadcast/Pump-style re-entry while a lock is
    held — the gossip-bus deadlock shape, where a handler running
    under the bus lock calls back into the bus.

"Held" is the lock span lockorder and guardcheck read too: from the
acquisition to a direct unlock in the same block, or to the end of
the function when the unlock is deferred, absent or in a nested
early-exit branch. Function literals are separate scopes: a defer
inside a closure does not pair with a Lock outside it. Two kinds of
function values are exempt from rule 2: closures defined in the same
function (they are part of the critical section, not injected
behaviour), and injected clocks (names containing "clock" or "now") —
pure value providers that the virtualtime rule itself mandates.`,
}

// reentrantCallees are method names whose invocation under a lock is the
// classic self-deadlock shape in this codebase.
var reentrantCallees = map[string]bool{"Broadcast": true, "Pump": true}

func runLockcheck(p *Pass) {
	for _, f := range p.Files {
		for _, body := range funcBodies(f) {
			p.lockcheckFunc(body)
		}
	}
}

func (p *Pass) lockcheckFunc(body *ast.BlockStmt) {
	for _, sp := range scopeLockSpans(p.Info, body) {
		key := types.ExprString(ast.Unparen(sp.call.Fun).(*ast.SelectorExpr).X)
		if !sp.deferred {
			unlock := "Unlock"
			if sp.read() {
				unlock = "RUnlock"
			}
			p.Reportf(sp.start, "%s.%s() without defer %s.%s() in the same function; narrow the critical section into a helper with defer", key, sp.method, key, unlock)
		}
		// Calls made while the span is open.
		inspectShallow(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() <= sp.start || call.Pos() >= sp.end {
				return true
			}
			name := calleeName(call)
			if reentrantCallees[name] {
				p.Reportf(call.Pos(), "call to %s while %s is held; a handler may re-enter the lock (gossip-bus deadlock shape)", name, key)
				return true
			}
			if p.isFuncValueCall(body, call) {
				p.Reportf(call.Pos(), "call to function value %s while %s is held; invoke handlers outside the critical section", exprText(call.Fun), key)
			}
			return true
		})
	}
}

// isFuncValueCall reports whether the call invokes an injected
// function-typed variable, parameter, or struct field (as opposed to a
// declared function or method, a conversion, a builtin, a local closure,
// or an injected clock).
func (p *Pass) isFuncValueCall(body *ast.BlockStmt, call *ast.CallExpr) bool {
	var obj types.Object
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.ObjectOf(fun)
		name = fun.Name
	case *ast.SelectorExpr:
		obj = p.Info.ObjectOf(fun.Sel)
		name = fun.Sel.Name
	default:
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
		return false
	}
	if body.Pos() <= v.Pos() && v.Pos() < body.End() {
		return false // closure or func variable defined in this function
	}
	lower := strings.ToLower(name)
	if strings.Contains(lower, "clock") || strings.Contains(lower, "now") {
		return false // injected clock, mandated by the virtualtime rule
	}
	return true
}
