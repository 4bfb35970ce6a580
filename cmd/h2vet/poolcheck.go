package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

var poolcheckAnalyzer = &Analyzer{
	Name:       "poolcheck",
	Doc:        "sync.Pool scratch is Put on every non-error path, cleared when it holds pointers, and never escapes",
	RunProgram: runPoolcheck,
	Long: `poolcheck turns the sync.Pool scratch idiom (PR 8's codec and
middleware pools) from a golden-test convention into a checked
contract. For every value obtained from a sync.Pool.Get inside a
function scope:

  - it must flow back to a Put on the same pool on every non-error
    path: a deferred Put covers all paths, otherwise the control-flow
    graph is walked and any path that reaches a success return (or
    falls off the end) without passing a Put is a finding; paths that
    return a non-nil error or die in panic/Fatal are exempt, because
    the pool entry is merely lost there, never corrupted;
  - when the pooled value holds pointers (strings, slices, maps, ...),
    it must be cleared between Get and Put — builtin clear on the
    scratch (or a derived slice) or a Reset method call — so a pooled
    buffer cannot pin decoded strings against the garbage collector;
  - neither the value nor anything aliasing it (tracked by the def-use
    pass in dataflow.go) may escape the function: returning it, storing
    it to a field or package variable, sending it on a channel, or
    handing it to a goroutine lets the pool recycle memory that is
    still referenced — and any use after a non-deferred Put is a
    use-after-free against the pool.

The analysis is per function scope: a scratch value that crosses a
function boundary is exactly the ownership transfer the contract
forbids. Cross-pool Puts (scratch from pool A returned to pool B) and
Get results never bound to a variable are findings too. Suppress a
deliberate ownership transfer with //h2vet:ignore poolcheck <reason>.`,
}

// poolScope is one function scope being checked: a FuncDecl body or a
// FuncLit body (each runs on its own activation, so Get/Put pairing is
// judged per scope).
type poolScope struct {
	unit *unit
	body *ast.BlockStmt
	decl ast.Node // the FuncDecl or FuncLit, for alias scanning
}

func runPoolcheck(p *ProgramPass) {
	for _, u := range p.Prog.source {
		for _, f := range u.files {
			var scopes []poolScope
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						scopes = append(scopes, poolScope{unit: u, body: n.Body, decl: n})
					}
				case *ast.FuncLit:
					scopes = append(scopes, poolScope{unit: u, body: n.Body, decl: n})
				}
				return true
			})
			for _, sc := range scopes {
				checkPoolScope(p, sc)
			}
		}
	}
}

// poolGet is one tracked pool.Get binding in a scope.
type poolGet struct {
	pool    *types.Var // the sync.Pool variable
	poolStr string     // rendered receiver ("extentScratchPool", "s.pool")
	call    *ast.CallExpr
	local   *types.Var // variable the Get result is bound to
}

func checkPoolScope(p *ProgramPass, sc poolScope) {
	info := sc.unit.info

	// Collect pool.Get bindings and pool.Put calls, shallow (nested
	// literals are their own scopes).
	var gets []poolGet
	boundGets := map[*ast.CallExpr]bool{}
	bindGet := func(lhs ast.Expr, rhs ast.Expr) {
		call, pool := poolGetCall(info, rhs)
		if call == nil {
			return
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		local, _ := info.ObjectOf(id).(*types.Var)
		if local == nil {
			return
		}
		boundGets[call] = true
		gets = append(gets, poolGet{pool: pool, poolStr: poolRecvText(call), call: call, local: local})
	}
	inspectShallow(sc.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bindGet(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					bindGet(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	// Unbound Gets cannot be checked against their Put; that is itself a
	// contract violation.
	inspectShallow(sc.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c, _ := poolGetCall(info, call); c != nil && !boundGets[c] {
			p.Reportf(call.Pos(), "sync.Pool Get result is not bound to a variable; bind it so the matching Put (and the escape contract) is checkable")
		}
		return true
	})
	if len(gets) == 0 {
		return
	}

	cfg := buildCFG(info, sc.body)
	sort.Slice(gets, func(i, j int) bool { return gets[i].call.Pos() < gets[j].call.Pos() })
	for _, g := range gets {
		checkPoolGet(p, sc, cfg, g)
	}
}

// poolGetCall matches `<pool>.Get()` possibly wrapped in a type
// assertion or parens, returning the call and the pool variable.
func poolGetCall(info *types.Info, e ast.Expr) (*ast.CallExpr, *types.Var) {
	switch e := ast.Unparen(e).(type) {
	case *ast.TypeAssertExpr:
		return poolGetCall(info, e.X)
	case *ast.CallExpr:
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Get" || len(e.Args) != 0 {
			return nil, nil
		}
		if pool := poolVar(info, sel.X); pool != nil {
			return e, pool
		}
	}
	return nil, nil
}

// poolVar resolves an expression to the sync.Pool variable it denotes
// (package var, struct field, or local), or nil.
func poolVar(info *types.Info, e ast.Expr) *types.Var {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(e)
	case *ast.SelectorExpr:
		if s := info.Selections[e]; s != nil {
			obj = s.Obj()
		} else {
			obj = info.ObjectOf(e.Sel)
		}
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v == nil {
		return nil
	}
	t := v.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool" {
		return v
	}
	return nil
}

// poolRecvText renders the Get call's receiver for diagnostics.
func poolRecvText(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := exprText(sel.X); s != "" {
			return s
		}
	}
	return "pool"
}

func checkPoolGet(p *ProgramPass, sc poolScope, cfg *funcCFG, g poolGet) {
	info := sc.unit.info
	fset := p.Prog.fset
	aliases := newAliasSet(info, sc.decl, g.local)

	// Put sites: direct statements in this scope, plus deferred calls
	// (directly or via a deferred literal).
	type putSite struct {
		stmt ast.Stmt
		pos  token.Pos
	}
	var puts []putSite
	deferred := false
	isPutCall := func(call *ast.CallExpr) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Put" || len(call.Args) != 1 {
			return false
		}
		pv := poolVar(info, sel.X)
		if pv == nil {
			return false
		}
		if !aliases.aliases(call.Args[0]) {
			return false
		}
		if pv != g.pool {
			p.Reportf(call.Pos(), "scratch from %s.Get is returned to a different pool %s; cross-pool Put corrupts both pools' size classes", g.poolStr, poolRecvText(call))
			return false
		}
		return true
	}
	for _, dc := range cfg.defers {
		if isPutCall(dc) {
			deferred = true
		}
		if lit, ok := dc.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isPutCall(call) {
					deferred = true
				}
				return true
			})
		}
	}
	var lastPut token.Pos
	for _, blk := range cfg.blocks {
		for _, stmt := range blk.nodes {
			if _, isDefer := stmt.(*ast.DeferStmt); isDefer {
				continue
			}
			found := false
			inspectShallow(stmt, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isPutCall(call) {
					found = true
				}
				return true
			})
			if found {
				puts = append(puts, putSite{stmt: stmt, pos: stmt.Pos()})
				if stmt.End() > lastPut {
					lastPut = stmt.End()
				}
			}
		}
	}

	// Clearing: pooled values holding pointers must be cleared (builtin
	// clear) or Reset between Get and Put, or the pool pins references.
	if kind, needs := poolNeedsClear(info, g); needs {
		cleared := false
		ast.Inspect(sc.decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "clear" && len(call.Args) == 1 && aliases.aliases(call.Args[0]) {
					cleared = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Reset" && aliases.aliases(fun.X) {
					cleared = true
				}
			}
			return true
		})
		if !cleared {
			p.Reportf(g.call.Pos(), "pooled %s holds pointers; clear it (or call Reset) between %s.Get and Put so the pool cannot pin references for the GC", kind, g.poolStr)
		}
	}

	// Escapes: anything aliasing the scratch leaving the function. A
	// return-escape also explains any missing Put on that path, so the
	// path check is skipped — one finding per root cause.
	returnEscape := reportEscapes(p, sc, aliases, g)

	// Use after a non-deferred Put: positional, which matches the
	// straight-line Put-then-return idiom this repo uses.
	if !deferred && lastPut.IsValid() {
		inspectShallow(sc.body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || id.Pos() <= lastPut {
				return true
			}
			obj, _ := info.ObjectOf(id).(*types.Var)
			if obj != nil && aliases.vars[obj] {
				lp := fset.Position(lastPut)
				p.Reportf(id.Pos(), "pooled scratch %s used after %s.Put at %s:%d returned it; the pool may already have handed it to another goroutine", id.Name, g.poolStr, lp.Filename, lp.Line)
				return false
			}
			return true
		})
	}

	if deferred || returnEscape {
		return // deferred Put covers every path; a return-escape was reported
	}

	// Path check: every path from the Get to a success exit must pass a
	// Put statement.
	putStmt := map[ast.Stmt]bool{}
	for _, ps := range puts {
		putStmt[ps.stmt] = true
	}
	startBlk, startIdx := locateStmt(cfg, g.call.Pos())
	if startBlk == nil {
		return
	}
	type visitKey struct {
		blk *cfgBlock
		idx int
	}
	seen := map[visitKey]bool{}
	var leak *token.Position
	var walk func(blk *cfgBlock, idx int)
	walk = func(blk *cfgBlock, idx int) {
		if leak != nil || seen[visitKey{blk, idx}] {
			return
		}
		seen[visitKey{blk, idx}] = true
		for i := idx; i < len(blk.nodes); i++ {
			if putStmt[blk.nodes[i]] {
				return // this path is covered
			}
		}
		if blk.dies {
			return // panic/Fatal path: exempt
		}
		if blk.ret != nil {
			if errorReturn(info, blk.ret) {
				return // error path: exempt
			}
			pos := fset.Position(blk.ret.Pos())
			leak = &pos
			return
		}
		for _, succ := range blk.succs {
			if succ == cfg.exit {
				pos := fset.Position(sc.body.End())
				leak = &pos // fell off the end without a Put
				return
			}
			walk(succ, 0)
		}
	}
	walk(startBlk, startIdx)
	if leak != nil {
		if len(puts) == 0 {
			p.Reportf(g.call.Pos(), "scratch from %s.Get is never returned with %s.Put; the pool degrades to plain allocation (defer the Put at the Get site)", g.poolStr, g.poolStr)
		} else {
			p.Reportf(g.call.Pos(), "scratch from %s.Get is not returned on every non-error path: the path exiting at %s:%d misses %s.Put (defer the Put or cover every return)", g.poolStr, leak.Filename, leak.Line, g.poolStr)
		}
	}
}

// reportEscapes flags scratch aliases leaving the function scope, and
// reports whether any escape was via return (detected, whether or not an
// ignore directive suppressed the diagnostic).
func reportEscapes(p *ProgramPass, sc poolScope, aliases *aliasSet, g poolGet) bool {
	info := sc.unit.info
	returnEscape := false
	inspectShallow(sc.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if aliases.aliases(res) {
					returnEscape = true
					p.Reportf(n.Pos(), "pooled scratch from %s.Get escapes via return; the pool may recycle it under the caller (copy it out, or do not pool it)", g.poolStr)
				}
			}
		case *ast.SendStmt:
			if aliases.aliases(n.Value) {
				p.Reportf(n.Pos(), "pooled scratch from %s.Get escapes via channel send; the receiver outlives the Put (copy it out first)", g.poolStr)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else {
					rhs = n.Rhs[0]
				}
				if !aliases.aliases(rhs) {
					continue
				}
				if sink := escapeSink(info, aliases, lhs); sink != "" {
					p.Reportf(n.Pos(), "pooled scratch from %s.Get escapes via store to %s; the reference outlives the function while the pool recycles the memory", g.poolStr, sink)
				}
			}
		case *ast.GoStmt:
			escapes := false
			for _, arg := range n.Call.Args {
				if aliases.aliases(arg) {
					escapes = true
				}
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(c ast.Node) bool {
					if id, ok := c.(*ast.Ident); ok {
						if obj, _ := info.ObjectOf(id).(*types.Var); obj != nil && aliases.vars[obj] {
							escapes = true
						}
					}
					return true
				})
			}
			if escapes {
				p.Reportf(n.Pos(), "pooled scratch from %s.Get is handed to a goroutine; the pool may recycle it concurrently (copy, or let the goroutine own its own Get/Put)", g.poolStr)
			}
		}
		return true
	})
	return returnEscape
}

// escapeSink classifies an assignment target that lets a scratch alias
// outlive the function: a package-level variable, a field of a foreign
// object, or a store through a foreign pointer. Stores into the scratch
// itself (*sp = ..., sp[i] = ...) are part of the idiom.
func escapeSink(info *types.Info, aliases *aliasSet, lhs ast.Expr) string {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj, _ := info.ObjectOf(lhs).(*types.Var)
		if obj != nil && !aliases.vars[obj] && obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return "package variable " + lhs.Name
		}
	case *ast.SelectorExpr:
		if !aliases.aliases(lhs.X) {
			if s := info.Selections[lhs]; s != nil && s.Kind() == types.FieldVal {
				return "field " + exprText(lhs)
			}
		}
	case *ast.StarExpr:
		if !aliases.aliases(lhs.X) {
			return "*" + exprText(lhs.X)
		}
	case *ast.IndexExpr:
		if !aliases.aliases(lhs.X) {
			if sel, ok := ast.Unparen(lhs.X).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return "field " + exprText(sel)
				}
			}
		}
	}
	return ""
}

// poolNeedsClear decides whether the pooled value must be cleared before
// Put, and names its kind for the diagnostic. The pooled value is the
// static type of the Get binding, one pointer unwrapped (pooling *T is
// the allocation-free idiom): a slice or map whose contents hold
// pointers, or a struct with pointer-bearing fields, pins references
// when pooled dirty.
func poolNeedsClear(info *types.Info, g poolGet) (string, bool) {
	t := g.local.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	name := types.TypeString(g.local.Type(), func(p *types.Package) string { return p.Name() })
	switch u := t.Underlying().(type) {
	case *types.Slice:
		if holdsPointers(u.Elem(), nil) {
			return name, true
		}
	case *types.Map:
		if holdsPointers(u.Key(), nil) || holdsPointers(u.Elem(), nil) {
			return name, true
		}
	case *types.Struct:
		if holdsPointers(u, nil) {
			return name, true
		}
	}
	return "", false
}

// holdsPointers reports whether values of t contain pointers the GC
// traces: strings, pointers, slices, maps, channels, funcs, interfaces,
// or aggregates containing them.
func holdsPointers(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.String || u.Kind() == types.UnsafePointer
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsPointers(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return holdsPointers(u.Elem(), seen)
	}
	return false
}

// locateStmt finds the block and node index containing pos.
func locateStmt(cfg *funcCFG, pos token.Pos) (*cfgBlock, int) {
	for _, blk := range cfg.blocks {
		for i, stmt := range blk.nodes {
			if stmt.Pos() <= pos && pos <= stmt.End() {
				return blk, i
			}
		}
	}
	return nil, 0
}
