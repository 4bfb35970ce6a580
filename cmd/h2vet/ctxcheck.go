package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var ctxcheckAnalyzer = &Analyzer{
	Name:       "ctxcheck",
	Doc:        "objstore I/O receives the caller's context; no fresh roots or undeclared WithoutCancel in internal/",
	RunProgram: runCtxcheck,
	Long: `ctxcheck enforces context propagation through the I/O layers:
cancellation must flow from the driver (cmd/) down through every
objstore.Store/Batcher primitive call, or an aborted run keeps issuing
simulated I/O that the cost model then charges to nobody. Inside
internal/ (non-test files):

  - context.Background() and context.TODO() are findings: request-scoped
    code must derive its context from the caller's parameter; fresh
    roots belong to drivers. A deliberate root (a bench harness, a test
    scaffold) carries //h2vet:ignore ctxcheck <reason>;
  - context.WithoutCancel detaches work from its caller's cancellation,
    which is correct only for the durable maintenance brackets (GC
    drain, orphan scrub) that must finish once started. Each such call
    declares itself with //h2vet:durable <reason> on its line or the
    line above; an undeclared WithoutCancel is a finding;
  - a Store/Batcher primitive call whose context argument is a nil
    literal or resolves to a package-level context variable is a
    finding: neither carries the caller's cancellation.

Local derivation chains are traced through the def-use pass: a ctx
built by context.WithTimeout(parent, d) inherits parent's origin, so
only the root of the chain is judged.`,
}

// ctxOrigin classifies where a context expression ultimately comes from.
type ctxOrigin int

const (
	ctxUnknown    ctxOrigin = iota // field, helper result, ... — give the benefit of the doubt
	ctxParam                       // derived from a function/literal parameter
	ctxBackground                  // rooted in context.Background()/TODO()
	ctxDurable                     // WithoutCancel declared with //h2vet:durable
	ctxDetached                    // undeclared WithoutCancel
	ctxPkgVar                      // a package-level context variable
	ctxNil                         // literal nil
)

func runCtxcheck(p *ProgramPass) {
	prog := p.Prog
	durables := collectLineDirectives(prog.source, "durable")

	var primIfaces []primIface
	for _, name := range []string{"Store", "Batcher"} {
		if iface := objstoreInterface(prog, name); iface != nil {
			names := map[string]bool{}
			for i := 0; i < iface.NumMethods(); i++ {
				names[iface.Method(i).Name()] = true
			}
			primIfaces = append(primIfaces, primIface{kind: name, iface: iface, names: names})
		}
	}

	for _, u := range prog.source {
		if !internalPkg(u.pkgPath) {
			continue
		}
		for _, f := range u.files {
			pos := u.fset.Position(f.Pos())
			if strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			checkCtxFile(p, u, f, durables, primIfaces)
		}
	}
}

// internalPkg reports whether the import path has an "internal" segment.
func internalPkg(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

func checkCtxFile(p *ProgramPass, u *unit, f *ast.File, durables map[string]map[int]string, primIfaces []primIface) {
	info := u.info

	// Fresh roots and undeclared detaches are findings wherever they
	// appear in the file, not only when the result reaches an I/O call:
	// a Background-rooted context poisons everything derived from it.
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch ctxCallName(info, call) {
		case "Background", "TODO":
			p.Reportf(call.Pos(), "context.%s() in internal/ severs cancellation from the caller; accept a ctx parameter and derive from it (drivers own the root; //h2vet:ignore ctxcheck <reason> for deliberate harness roots)", ctxCallName(info, call))
		case "WithoutCancel":
			pos := u.fset.Position(call.Pos())
			if _, ok := directiveFor(durables, pos.Filename, pos.Line); !ok {
				p.Reportf(call.Pos(), "context.WithoutCancel detaches this work from the caller's cancellation; declare the durable bracket with //h2vet:durable <reason> (GC drain and scrub brackets are the intended uses) or propagate ctx unchanged")
			}
		}
		return true
	})

	// I/O call sites: judge the origin of the context argument.
	var scopes []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				scopes = append(scopes, n)
			}
		case *ast.FuncLit:
			scopes = append(scopes, n)
		}
		return true
	})
	for _, scope := range scopes {
		checkCtxScope(p, u, scope, durables, primIfaces)
	}
}

// checkCtxScope traces context locals inside one function scope and
// judges the ctx argument of each Store/Batcher primitive call.
func checkCtxScope(p *ProgramPass, u *unit, scope ast.Node, durables map[string]map[int]string, primIfaces []primIface) {
	info := u.info
	var body *ast.BlockStmt
	var params *ast.FieldList
	switch s := scope.(type) {
	case *ast.FuncDecl:
		body, params = s.Body, s.Type.Params
	case *ast.FuncLit:
		body, params = s.Body, s.Type.Params
	}
	if body == nil {
		return
	}

	paramVars := map[*types.Var]bool{}
	if params != nil {
		for _, field := range params.List {
			for _, name := range field.Names {
				if v, ok := info.ObjectOf(name).(*types.Var); ok && isContextType(v.Type()) {
					paramVars[v] = true
				}
			}
		}
	}

	// Local origin map, fixpointed so chains of := assignments resolve.
	origins := map[*types.Var]ctxOrigin{}
	var originOf func(e ast.Expr) ctxOrigin
	originOf = func(e ast.Expr) ctxOrigin {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if e.Name == "nil" {
				return ctxNil
			}
			v, ok := info.ObjectOf(e).(*types.Var)
			if !ok || v == nil {
				return ctxUnknown
			}
			if paramVars[v] {
				return ctxParam
			}
			if o, ok := origins[v]; ok {
				return o
			}
			if !v.IsField() && v.Parent() != nil && v.Parent().Parent() == types.Universe && isContextType(v.Type()) {
				return ctxPkgVar
			}
			return ctxUnknown
		case *ast.CallExpr:
			switch ctxCallName(info, e) {
			case "Background", "TODO":
				return ctxBackground
			case "WithoutCancel":
				pos := u.fset.Position(e.Pos())
				if _, ok := directiveFor(durables, pos.Filename, pos.Line); ok {
					return ctxDurable
				}
				return ctxDetached
			case "WithCancel", "WithTimeout", "WithDeadline", "WithValue", "WithCancelCause", "WithDeadlineCause", "WithTimeoutCause":
				if len(e.Args) > 0 {
					return originOf(e.Args[0])
				}
			}
			return ctxUnknown
		}
		return ctxUnknown
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) == 0 || len(assign.Rhs) == 0 {
				return true
			}
			bind := func(lhs ast.Expr, rhs ast.Expr) {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					return
				}
				v, ok := info.ObjectOf(id).(*types.Var)
				if !ok || v == nil || !isContextType(v.Type()) || paramVars[v] {
					return
				}
				if o := originOf(rhs); o != ctxUnknown && origins[v] != o {
					origins[v] = o
					changed = true
				}
			}
			if len(assign.Lhs) == len(assign.Rhs) {
				for i := range assign.Lhs {
					bind(assign.Lhs[i], assign.Rhs[i])
				}
			} else if len(assign.Rhs) == 1 {
				// ctx, cancel := context.WithTimeout(...): the context is
				// the first result.
				bind(assign.Lhs[0], assign.Rhs[0])
			}
			return true
		})
	}

	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		prim := false
		for _, pi := range primIfaces {
			if isStorePrimitive(fn, pi.iface, pi.names) {
				prim = true
			}
		}
		if !prim {
			return true
		}
		arg := call.Args[0]
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil {
			return true
		}
		if b, isBasic := tv.Type.(*types.Basic); !isContextType(tv.Type) && !(isBasic && b.Kind() == types.UntypedNil) {
			return true
		}
		switch originOf(arg) {
		case ctxNil:
			p.Reportf(call.Pos(), "objstore %s call receives a nil context; pass the caller's ctx so cancellation reaches the I/O layer", fn.Name())
		case ctxPkgVar:
			p.Reportf(call.Pos(), "objstore %s call receives a package-level context; thread the caller's ctx parameter instead so cancellation propagates per request", fn.Name())
		}
		return true
	})
}

// ctxCallName returns the function name for a call into package context,
// or "".
func ctxCallName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	return fn.Name()
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// calleeFunc resolves the called function/method of a call expression.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

var _ = token.NoPos
