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

 1. every mu.Lock()/mu.RLock() statement must be paired with a
    defer mu.Unlock()/defer mu.RUnlock() on the same mutex in the
    same function — explicit unlock threading leaks locks on early
    returns and panics; narrow the critical section into a helper
    whose whole body holds the lock;
 2. no calls to function *values* (handlers, callbacks, struct fields
    of func type) and no Broadcast/Pump-style re-entry while a lock is
    held — the gossip-bus deadlock shape, where a handler running
    under the bus lock calls back into the bus.

Function literals are separate scopes: a defer inside a closure does
not pair with a Lock outside it. Two kinds of function values are
exempt from rule 2: closures defined in the same function (they are
part of the critical section, not injected behaviour), and injected
clocks (names containing "clock" or "now") — pure value providers
that the virtualtime rule itself mandates.`,
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

type lockCall struct {
	key    string // rendered mutex expression, e.g. "b.mu"
	read   bool   // RLock/RUnlock flavor
	stmt   ast.Stmt
	parent *ast.BlockStmt
}

func (p *Pass) lockcheckFunc(body *ast.BlockStmt) {
	var locks, unlocks []lockCall
	deferred := map[string]bool{} // key+flavor of deferred unlocks
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if key, name, ok := p.mutexCall(n.Call); ok && (name == "Unlock" || name == "RUnlock") {
				deferred[key+"/"+flavor(name)] = true
			}
		case *ast.BlockStmt:
			for _, stmt := range n.List {
				es, ok := stmt.(*ast.ExprStmt)
				if !ok {
					continue
				}
				call, ok := es.X.(*ast.CallExpr)
				if !ok {
					continue
				}
				key, name, ok := p.mutexCall(call)
				if !ok {
					continue
				}
				lc := lockCall{key: key, read: name == "RLock" || name == "RUnlock", stmt: stmt, parent: n}
				switch name {
				case "Lock", "RLock":
					locks = append(locks, lc)
				case "Unlock", "RUnlock":
					unlocks = append(unlocks, lc)
				}
			}
		}
		return true
	})
	if len(locks) == 0 {
		return
	}

	for _, lock := range locks {
		name, unlockName := "Lock", "Unlock"
		if lock.read {
			name, unlockName = "RLock", "RUnlock"
		}
		if !deferred[lock.key+"/"+flavor(name)] {
			p.Reportf(lock.stmt.Pos(), "%s.%s() without defer %s.%s() in the same function; narrow the critical section into a helper with defer", lock.key, name, lock.key, unlockName)
		}
		p.checkHeldSpan(body, lock, unlocks)
	}
}

// checkHeldSpan walks the statements where lock is held — from the Lock
// statement to the matching explicit Unlock in the same block, or to the
// end of the function when the unlock is deferred — and flags calls to
// function values and re-entrant bus methods.
func (p *Pass) checkHeldSpan(body *ast.BlockStmt, lock lockCall, unlocks []lockCall) {
	end := body.End()
	for _, ul := range unlocks {
		if ul.key == lock.key && ul.read == lock.read && ul.parent == lock.parent && ul.stmt.Pos() > lock.stmt.Pos() {
			end = ul.stmt.Pos()
			break
		}
	}
	for _, stmt := range lock.parent.List {
		if stmt.Pos() <= lock.stmt.Pos() || stmt.Pos() >= end {
			continue
		}
		inspectShallow(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if reentrantCallees[name] {
				p.Reportf(call.Pos(), "call to %s while %s is held; a handler may re-enter the lock (gossip-bus deadlock shape)", name, lock.key)
				return true
			}
			if p.isFuncValueCall(body, call) {
				p.Reportf(call.Pos(), "call to function value %s while %s is held; invoke handlers outside the critical section", exprText(call.Fun), lock.key)
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

// mutexCall matches <expr>.Lock/RLock/Unlock/RUnlock() and returns the
// rendered mutex expression and method name. When the receiver's type
// resolves, only sync package mutexes qualify; unresolved receivers are
// accepted by name.
func (p *Pass) mutexCall(call *ast.CallExpr) (key, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	key = exprText(sel.X)
	if key == "" {
		return "", "", false
	}
	if t := p.Info.TypeOf(sel.X); t != nil && !isSyncMutex(t) {
		return "", "", false
	}
	return key, sel.Sel.Name, true
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// flavor collapses Lock/Unlock to "w" and RLock/RUnlock to "r".
func flavor(name string) string {
	if name == "RLock" || name == "RUnlock" {
		return "r"
	}
	return "w"
}
