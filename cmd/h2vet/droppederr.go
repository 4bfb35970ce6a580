package main

import (
	"go/ast"
	"go/types"
	"strings"
)

var droppederrAnalyzer = &Analyzer{
	Name: "droppederr",
	Doc:  "no ignored errors from core codecs and objstore/cluster Put/PutSealed/Get/Load/Delete",
	Run:  runDroppederr,
	Long: `droppederr flags discarded error results from the calls whose
failures silently corrupt simulated state: the internal/core codecs
(Decode*/Encode*) and the objstore / cluster storage primitives
(Put/PutSealed/Get/Load/Delete). Two shapes are diagnosed:

    n.Put(...)                 // expression statement, results dropped
    v, _ := core.DecodeDir(b)  // error position assigned to _

Only calls whose signature actually returns an error are considered,
and the storage primitives only count when the method is declared in
internal/objstore or internal/cluster — pathdb.Get and friends return
booleans, not errors, and stay exempt. Unlike the determinism rules
this one covers _test.go files too: a test that drops a Put error can
pass against a store that never stored anything. Handle the error,
return it, or explain the best-effort case with
//h2vet:ignore droppederr <reason>.`,
}

var storagePrimitives = map[string]bool{"Put": true, "PutSealed": true, "Get": true, "Load": true, "Delete": true}

func runDroppederr(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, ok := p.guardedCall(call); ok && p.errorResultIndex(call) >= 0 {
						p.Reportf(call.Pos(), "result of %s is discarded; check the error", name)
					}
				}
			case *ast.AssignStmt:
				p.checkAssignDrops(n)
			}
			return true
		})
	}
}

// checkAssignDrops flags `v, _ := guardedCall(...)` where _ sits in the
// error position.
func (p *Pass) checkAssignDrops(assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := p.guardedCall(call)
	if !ok {
		return
	}
	idx := p.errorResultIndex(call)
	if idx < 0 || idx >= len(assign.Lhs) {
		return
	}
	if id, ok := assign.Lhs[idx].(*ast.Ident); ok && id.Name == "_" {
		p.Reportf(assign.Lhs[idx].Pos(), "error result of %s is assigned to _; check the error", name)
	}
}

// guardedCall reports whether the call targets a guarded API, returning
// a printable name for diagnostics.
func (p *Pass) guardedCall(call *ast.CallExpr) (string, bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = p.Info.ObjectOf(fun.Sel)
	default:
		return "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	pkg := fn.Pkg().Path()
	name := fn.Name()
	switch {
	case strings.HasSuffix(pkg, "/internal/core") || pkg == "internal/core":
		if strings.HasPrefix(name, "Decode") || strings.HasPrefix(name, "Encode") {
			return "core." + name, true
		}
	case strings.HasSuffix(pkg, "/internal/objstore") || pkg == "internal/objstore":
		if storagePrimitives[name] {
			return "objstore " + name, true
		}
	case strings.HasSuffix(pkg, "/internal/cluster") || pkg == "internal/cluster":
		if storagePrimitives[name] {
			return "cluster " + name, true
		}
	}
	return "", false
}

// errorResultIndex returns the index of the last result of type error in
// the call's signature, or -1.
func (p *Pass) errorResultIndex(call *ast.CallExpr) int {
	sig, ok := p.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return -1
	}
	for i := sig.Results().Len() - 1; i >= 0; i-- {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return i
		}
	}
	return -1
}
