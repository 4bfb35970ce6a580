package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// callgraphDoc is what `h2vet -explain callgraph` prints ahead of the
// measured CHA-vs-RTA table; it is also the description of callGraph.
const callgraphDoc = `callgraph is not a rule but the shared analysis substrate: h2vet builds
one call graph over the typed module and every whole-program rule that
follows calls (costcheck, lockorder) consumes it. Static
calls resolve to their exact callee. Call sites through interfaces are
first expanded CHA-style (every implementing type's method is a possible
callee), then refined with Rapid Type Analysis: an interface edge to a
concrete method survives only if its receiver type is actually
instantiated — composite literal, conversion, new(T), var declaration —
in code reachable from the roots (package main functions, init, and the
exported API, which is how the test packages enter). Uninstantiated
implementations keep their declared-body analysis but receive no
interface edges, so a golden-test stub or a retired baseline cannot
widen lockorder cycles or costcheck delegation onto live code.

Calls through plain function values are unresolvable and omitted — the
lockcheck rule independently bans invoking those under a lock, so the
lock analyzers lose nothing. Function literals have no *types.Func of
their own; their call sites are attributed to the enclosing declared
function, which matches how facts should flow (a retry wrapper's
func() { inner.Get(...) } is the wrapper method delegating).

Run h2vet -explain callgraph [patterns] to print the CHA vs RTA edge
counts and the per-rule finding delta measured on this module.`

// callGraph is the whole-program call graph over the shared typed
// universe (see callgraphDoc).
type callGraph struct {
	prog    *Program
	chaOnly bool // keep the unrefined CHA edges (used by -explain callgraph)
	funcs   map[*types.Func]*funcInfo
	named   []*types.Named // concrete named types declared in the program

	implCache map[*types.Func][]*types.Func // interface method -> CHA implementations

	inst      map[*types.Named]bool // RTA: types instantiated in reachable code
	reachable map[*types.Func]bool  // RTA: functions reachable from the roots
	stats     graphStats
}

// graphStats quantifies what the RTA refinement removed; -explain
// callgraph prints it.
type graphStats struct {
	funcs, roots, reachable      int
	named, instantiated          int
	ifaceSites                   int
	chaEdges, rtaEdges           int
	chaIfaceEdges, rtaIfaceEdges int
}

// funcInfo is one call-graph node: a declared function or method with a
// body in the program.
type funcInfo struct {
	obj  *types.Func
	decl *ast.FuncDecl
	unit *unit
	// sites lists the function's call sites in source order with their
	// resolved callees (CHA-expanded for interface calls).
	sites []callSite
	// callees is the deduplicated, deterministically ordered union of all
	// sites' callees.
	callees []*types.Func
}

// callSite is one call expression and the callees it may reach. callees
// holds the RTA-refined edge set the analyzers consume; chaCallees keeps
// the full CHA expansion so -explain callgraph can report the delta.
type callSite struct {
	call       *ast.CallExpr
	iface      bool // resolved through an interface method
	callees    []*types.Func
	chaCallees []*types.Func
}

// buildCallGraph indexes every declared function in the program's source
// units, resolves each call site CHA-style, and refines the interface
// edges with RTA.
func buildCallGraph(prog *Program) *callGraph {
	return buildCallGraphMode(prog, false)
}

// buildCallGraphMode is buildCallGraph with the RTA refinement optionally
// disabled, for measuring what the refinement removes.
func buildCallGraphMode(prog *Program, chaOnly bool) *callGraph {
	g := &callGraph{
		prog:      prog,
		chaOnly:   chaOnly,
		funcs:     map[*types.Func]*funcInfo{},
		implCache: map[*types.Func][]*types.Func{},
		inst:      map[*types.Named]bool{},
		reachable: map[*types.Func]bool{},
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
	// Pass 2: resolve call sites (CHA expansion).
	for _, fi := range g.funcs {
		g.resolveSites(fi)
	}
	// Pass 3: RTA refinement — drop interface edges to types never
	// instantiated in reachable code.
	g.refineRTA()
	return g
}

// sortedFuncs returns the graph's functions in deterministic order.
func (g *callGraph) sortedFuncs() []*types.Func {
	fns := make([]*types.Func, 0, len(g.funcs))
	for fn := range g.funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return objKey(fns[i]) < objKey(fns[j]) })
	return fns
}

// funcFacts is what RTA needs from one function body: the program
// functions it references (as callees or as values) and the named types
// it instantiates.
type funcFacts struct {
	refs []*types.Func
	inst []*types.Named
}

// collectFuncFacts scans one function body. Every use of a *types.Func
// counts as a reference (static calls, method values, functions passed as
// values — a function whose address is taken can be invoked anywhere, so
// it must count as reachable). Instantiations are composite literals,
// new(T), conversions to a named type, and local declarations of a named
// concrete type.
func collectFuncFacts(info *types.Info, body ast.Node) funcFacts {
	var facts funcFacts
	seenFn := map[*types.Func]bool{}
	seenT := map[*types.Named]bool{}
	addT := func(t types.Type) {
		named := namedConcrete(t)
		if named != nil && !seenT[named] {
			seenT[named] = true
			facts.inst = append(facts.inst, named)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok && fn != nil && !seenFn[fn] {
				seenFn[fn] = true
				facts.refs = append(facts.refs, fn)
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				addT(tv.Type)
			}
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			if tv, ok := info.Types[fun]; ok && tv.IsType() {
				addT(tv.Type) // conversion T(x)
			}
			if id, ok := fun.(*ast.Ident); ok && id.Name == "new" {
				if tv, ok := info.Types[n]; ok {
					addT(tv.Type) // new(T) yields *T
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				if tv, ok := info.Types[n.Type]; ok {
					addT(tv.Type)
				}
			}
		}
		return true
	})
	return facts
}

// namedConcrete unwraps pointers and returns the named non-interface type
// behind t, or nil.
func namedConcrete(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		return nil
	}
	return named
}

// markInstantiated adds a type and, transitively, the named types of its
// value-embedded fields and array elements (instantiating the outer value
// instantiates them too).
func (g *callGraph) markInstantiated(named *types.Named) bool {
	if named == nil || g.inst[named] {
		return false
	}
	g.inst[named] = true
	switch u := named.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if inner, ok := u.Field(i).Type().(*types.Named); ok {
				g.markInstantiated(namedConcrete(inner))
			} else if arr, ok := u.Field(i).Type().(*types.Array); ok {
				g.markInstantiated(namedConcrete(arr.Elem()))
			}
		}
	case *types.Array:
		g.markInstantiated(namedConcrete(u.Elem()))
	}
	return true
}

// refineRTA computes the reachable-function and instantiated-type sets
// from the graph's roots and drops interface edges whose receiver type is
// never instantiated. Roots are package main, init functions, and every
// exported function or method — the surface tests and external packages
// can drive. Package-level variable initializers instantiate their types
// unconditionally (they run at import).
func (g *callGraph) refineRTA() {
	fns := g.sortedFuncs()
	g.stats.funcs = len(fns)
	g.stats.named = len(g.named)

	// Package-level declarations instantiate unconditionally.
	for _, u := range g.prog.source {
		for _, f := range u.files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					facts := collectFuncFacts(u.info, vs)
					for _, t := range facts.inst {
						g.markInstantiated(t)
					}
					for _, fn := range facts.refs {
						if g.funcs[fn] != nil {
							g.reachable[fn] = true
						}
					}
				}
			}
		}
	}

	// Roots: main, init, the exported API surface.
	for _, fn := range fns {
		fi := g.funcs[fn]
		isMain := fi.unit.pkg != nil && fi.unit.pkg.Name() == "main"
		if isMain || fn.Name() == "init" || ast.IsExported(fn.Name()) {
			g.reachable[fn] = true
			g.stats.roots++
		}
	}

	// Fixpoint: process reachable bodies, collecting references and
	// instantiations; interface edges activate once their receiver type
	// is instantiated.
	factCache := map[*types.Func]funcFacts{}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if !g.reachable[fn] {
				continue
			}
			fi := g.funcs[fn]
			facts, ok := factCache[fn]
			if !ok {
				facts = collectFuncFacts(fi.unit.info, fi.decl.Body)
				factCache[fn] = facts
			}
			for _, t := range facts.inst {
				if g.markInstantiated(t) {
					changed = true
				}
			}
			for _, ref := range facts.refs {
				if g.funcs[ref] != nil && !g.reachable[ref] {
					g.reachable[ref] = true
					changed = true
				}
			}
			for _, site := range fi.sites {
				if !site.iface {
					continue
				}
				for _, callee := range site.chaCallees {
					if recvInterface(callee) != nil || g.funcs[callee] == nil || g.reachable[callee] {
						continue
					}
					if g.inst[recvNamed(callee)] {
						g.reachable[callee] = true
						changed = true
					}
				}
			}
		}
	}
	g.stats.reachable = len(g.reachable)
	// g.inst also holds types outside the program (embedded sync.Mutex and
	// friends marked transitively); count only the program's own types.
	for _, named := range g.named {
		if g.inst[named] {
			g.stats.instantiated++
		}
	}

	// Filter: an interface edge survives when its receiver type is
	// instantiated. The interface method itself always stays — it is the
	// dispatch boundary rules like costcheck test against.
	for _, fn := range fns {
		fi := g.funcs[fn]
		for i := range fi.sites {
			site := &fi.sites[i]
			g.stats.chaEdges += len(site.chaCallees)
			if site.iface {
				g.stats.ifaceSites++
				g.stats.chaIfaceEdges += len(site.chaCallees)
			}
			if !site.iface || g.chaOnly {
				site.callees = site.chaCallees
			} else {
				site.callees = site.chaCallees[:0:0]
				for _, callee := range site.chaCallees {
					if recvInterface(callee) != nil || g.inst[recvNamed(callee)] {
						site.callees = append(site.callees, callee)
					}
				}
			}
			g.stats.rtaEdges += len(site.callees)
			if site.iface {
				g.stats.rtaIfaceEdges += len(site.callees)
			}
		}
		// Recompute the deduplicated union over the refined sites.
		fi.callees = fi.callees[:0]
		seen := map[*types.Func]bool{}
		for _, site := range fi.sites {
			for _, c := range site.callees {
				if !seen[c] {
					seen[c] = true
					fi.callees = append(fi.callees, c)
				}
			}
		}
		sort.Slice(fi.callees, func(i, j int) bool { return objKey(fi.callees[i]) < objKey(fi.callees[j]) })
	}
}

// recvNamed returns the named type behind a method's receiver, or nil.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedConcrete(sig.Recv().Type())
}

// resolveSites walks fi's body (function literals included) and resolves
// every call expression.
func (g *callGraph) resolveSites(fi *funcInfo) {
	info := fi.unit.info
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := staticCallee(info, call)
		if obj == nil {
			return true
		}
		site := callSite{call: call}
		if recvInterface(obj) != nil {
			site.iface = true
			site.chaCallees = append([]*types.Func{obj}, g.implementations(obj)...)
		} else {
			site.chaCallees = []*types.Func{obj}
		}
		site.callees = site.chaCallees // refineRTA narrows interface sites
		fi.sites = append(fi.sites, site)
		return true
	})
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
