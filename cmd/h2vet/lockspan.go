package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockSpan is one static mutex-held region of a function scope: the one
// lock model lockcheck, lockorder and guardcheck read. The package doc
// states its rule; scopeLockSpans is the rule's only implementation.
type lockSpan struct {
	cls        *types.Var
	call       *ast.CallExpr // the acquisition
	method     string        // Lock, RLock, TryLock or TryRLock
	deferred   bool          // the scope defers an unlock of the same class and flavor
	start, end token.Pos
}

// read reports whether the span holds the read half of an RWMutex.
func (s lockSpan) read() bool { return s.method == "RLock" || s.method == "TryRLock" }

// scopeLockSpans computes the lock spans of one function scope, in
// acquisition order.
func scopeLockSpans(info *types.Info, scope *ast.BlockStmt) []lockSpan {
	type unlock struct {
		cls            *types.Var
		read, deferred bool
		pos            token.Pos
		block          ast.Node
	}
	var spans []lockSpan
	var spanBlocks []ast.Node // the innermost block of each acquisition
	var unlocks []unlock
	deferred := map[*ast.CallExpr]bool{}
	var blocks []ast.Node // enclosing blocks, innermost last; ended ones pop lazily
	inspectShallow(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			blocks = append(blocks, n)
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			cls, method, ok := mutexClass(info, n)
			if !ok {
				break
			}
			for n.Pos() >= blocks[len(blocks)-1].End() {
				blocks = blocks[:len(blocks)-1]
			}
			block := blocks[len(blocks)-1]
			if method == "Unlock" || method == "RUnlock" {
				unlocks = append(unlocks, unlock{cls: cls, read: method == "RUnlock", deferred: deferred[n], pos: n.Pos(), block: block})
				break
			}
			spans = append(spans, lockSpan{cls: cls, call: n, method: method, start: n.Pos(), end: scope.End()})
			spanBlocks = append(spanBlocks, block)
		}
		return true
	})
	for i := range spans {
		sp := &spans[i]
		for _, ul := range unlocks {
			switch {
			case ul.cls != sp.cls || ul.read != sp.read():
			case ul.deferred:
				sp.deferred = true
			case ul.pos > sp.start && ul.pos < sp.end && ul.block == spanBlocks[i]:
				sp.end = ul.pos
			}
		}
	}
	return spans
}

// lockScopes returns the defer scopes of a declared function: its own
// body plus each nested function literal body.
func lockScopes(decl *ast.FuncDecl) []*ast.BlockStmt {
	scopes := []*ast.BlockStmt{decl.Body}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			scopes = append(scopes, lit.Body)
		}
		return true
	})
	return scopes
}

// mutexClass resolves <expr>.Lock/RLock/TryLock/TryRLock/Unlock/RUnlock()
// to the declared mutex variable behind the expression: a struct field,
// package var, or local. Receivers that don't resolve to a sync mutex
// variable are skipped.
func mutexClass(info *types.Info, call *ast.CallExpr) (cls *types.Var, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	if t := info.TypeOf(sel.X); t == nil || !isSyncMutex(t) {
		return nil, "", false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if s := info.Selections[x]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok {
				return v, sel.Sel.Name, true
			}
		}
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok {
			return v, sel.Sel.Name, true
		}
	}
	return nil, "", false
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
