package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// callGraph is the whole-program call graph over the shared typed
// universe; every whole-program rule that follows calls (costcheck,
// lockorder) consumes it. A static call resolves to its exact callee. A
// call through an interface method reaches the method itself (the
// dispatch boundary costcheck tests against) and, class-hierarchy style,
// every program type's implementation of it. Calls through plain function
// values are unresolvable and omitted: lockcheck bans invoking those under
// a lock, so the lock rules lose nothing. A function literal's call sites
// belong to its enclosing declared function, which is how facts should
// flow (a retry wrapper's func() { inner.Get(...) } is the wrapper method
// delegating).
type callGraph struct {
	funcs map[*types.Func]*funcInfo
	named []*types.Named // concrete named types declared in the program

	implCache map[*types.Func][]*types.Func // interface method -> implementations
}

// funcInfo is one call-graph node: a declared function or method with a
// body in the program.
type funcInfo struct {
	obj  *types.Func
	decl *ast.FuncDecl
	unit *unit
	// sites lists the function's call sites in source order with their
	// resolved callees.
	sites []callSite
	// callees is the deduplicated, deterministically ordered union of all
	// sites' callees.
	callees []*types.Func
}

// callSite is one call expression and the callees it may reach.
type callSite struct {
	call    *ast.CallExpr
	callees []*types.Func
}

// buildCallGraph indexes every declared function in the program's source
// units and resolves each call site.
func buildCallGraph(prog *Program) *callGraph {
	g := &callGraph{
		funcs:     map[*types.Func]*funcInfo{},
		implCache: map[*types.Func][]*types.Func{},
	}
	// Pass 1: collect named types and function declarations.
	for _, u := range prog.source {
		for _, f := range u.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					if obj, ok := u.info.Defs[d.Name].(*types.Func); ok && obj != nil {
						g.funcs[obj] = &funcInfo{obj: obj, decl: d, unit: u}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || ts.Assign.IsValid() { // skip aliases
							continue
						}
						tn, ok := u.info.Defs[ts.Name].(*types.TypeName)
						if !ok || tn == nil {
							continue
						}
						if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
							g.named = append(g.named, named)
						}
					}
				}
			}
		}
	}
	sort.Slice(g.named, func(i, j int) bool {
		return objKey(g.named[i].Obj()) < objKey(g.named[j].Obj())
	})
	// Pass 2: resolve call sites.
	for _, fi := range g.funcs {
		g.resolveSites(fi)
	}
	return g
}

// resolveSites walks fi's body (function literals included), resolves
// every call expression, and collects the deduplicated callee union.
func (g *callGraph) resolveSites(fi *funcInfo) {
	info := fi.unit.info
	seen := map[*types.Func]bool{}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callees := g.calleesOf(info, call)
		if callees == nil {
			return true
		}
		fi.sites = append(fi.sites, callSite{call: call, callees: callees})
		for _, c := range callees {
			if !seen[c] {
				seen[c] = true
				fi.callees = append(fi.callees, c)
			}
		}
		return true
	})
	sort.Slice(fi.callees, func(i, j int) bool { return objKey(fi.callees[i]) < objKey(fi.callees[j]) })
}

// calleesOf resolves one call expression to the functions it may invoke:
// its static callee, plus every implementation when that is an interface
// method. It is nil for builtins, conversions and function-value calls.
func (g *callGraph) calleesOf(info *types.Info, call *ast.CallExpr) []*types.Func {
	obj := staticCallee(info, call)
	if obj == nil {
		return nil
	}
	if recvInterface(obj) != nil {
		return append([]*types.Func{obj}, g.implementations(obj)...)
	}
	return []*types.Func{obj}
}

// staticCallee resolves a call expression to the function or method
// object it names, or nil for builtins, conversions, and function-value
// calls.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// recvInterface returns the interface a method belongs to, or nil for
// functions and concrete methods.
func recvInterface(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// implementations returns the concrete program methods an interface
// method call may dispatch to, in deterministic order.
func (g *callGraph) implementations(m *types.Func) []*types.Func {
	if impls, ok := g.implCache[m]; ok {
		return impls
	}
	iface := recvInterface(m)
	var impls []*types.Func
	if iface != nil {
		for _, named := range g.named {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok && fn != nil {
				impls = append(impls, fn)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return objKey(impls[i]) < objKey(impls[j]) })
	g.implCache[m] = impls
	return impls
}

// reaches reports whether any function satisfying target is reachable
// from start. Traversal descends into a callee only when through(callee)
// is true (and the callee has a body in the program); target is tested on
// every resolved callee regardless.
func (g *callGraph) reaches(start *types.Func, target, through func(*types.Func) bool) bool {
	found := false
	g.walk(start, through, func(callee *types.Func, _ *funcInfo, _ callSite) {
		if target(callee) {
			found = true
		}
	})
	return found
}

// walk traverses the call graph from start, invoking visit for every
// (callee, calling function, call site) triple encountered. Traversal
// descends into callees with bodies for which through returns true.
// Each function is expanded at most once.
func (g *callGraph) walk(start *types.Func, through func(*types.Func) bool, visit func(callee *types.Func, from *funcInfo, site callSite)) {
	seen := map[*types.Func]bool{start: true}
	queue := []*types.Func{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		fi := g.funcs[cur]
		if fi == nil {
			continue
		}
		for _, site := range fi.sites {
			for _, callee := range site.callees {
				visit(callee, fi, site)
				if seen[callee] || !through(callee) {
					continue
				}
				seen[callee] = true
				queue = append(queue, callee)
			}
		}
	}
}

// objKey is a stable, universe-independent identifier for a function,
// method, type, or variable: pkgpath.(Recv.)Name.
func objKey(obj types.Object) string {
	if obj == nil {
		return ""
	}
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if name := recvTypeName(sig.Recv().Type()); name != "" {
				return fmt.Sprintf("%s.%s.%s", pkg, name, fn.Name())
			}
		}
	}
	return pkg + "." + obj.Name()
}

// recvTypeName names a receiver type, stripping any pointer.
func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "" // interface method; key by name only
	}
	return ""
}

// shortName renders an object as pkgname.Name for diagnostics.
func shortName(obj types.Object) string {
	if obj == nil {
		return "?"
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// isChargeFunc reports whether fn is the cost model's charge entry point:
// vclock.Charge, (*vclock.Tracker).Charge, or any other function of the
// vclock package that records service time.
func isChargeFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if !strings.HasSuffix(fn.Pkg().Path(), "internal/vclock") {
		return false
	}
	return fn.Name() == "Charge"
}
