package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

var sentinelcheckAnalyzer = &Analyzer{
	Name:       "sentinelcheck",
	Doc:        "errors.Is over ==/string-matching; sentinels survive the httpapi wire",
	Run:        runSentinelUnit,
	RunProgram: runSentinelProgram,
	Long: `sentinelcheck enforces the error-taxonomy invariants that keep
typed sentinels (ErrNotFound, ErrNodeDown, ErrNoQuorum, ...) usable
after wrapping and across the HTTP wire:

Per-unit (tests included):
  - sentinels must be tested with errors.Is, never == / != — a wrapped
    sentinel compares unequal and the check silently stops matching.

Per-unit (non-test code):
  - error conditions must not be detected by string matching: no
    ==/!= or strings.Contains/HasPrefix/HasSuffix over err.Error();
  - fmt.Errorf with an error argument must use %w so errors.Is sees
    through the wrap.

Whole-program:
  - every exported Err* sentinel of internal/fsapi and
    internal/objstore must have a row in httpapi's wireErrors table —
    otherwise it crosses the wire as a bare 500 and the client loses
    the type. The server's writeErr and the client's decodeErr both
    read that one table, so the two sides cannot disagree on a code;
    a missing row is the only drift left to catch.`,
}

func runSentinelUnit(p *Pass) {
	for _, f := range p.Files {
		isTest := p.IsTestFile(f.Pos())
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if obj := sentinelVar(p.Info, side); obj != nil {
						p.Reportf(n.Pos(), "sentinel %s compared with %s; use errors.Is so wrapped errors still match", shortName(obj), n.Op)
						return true
					}
				}
				if !isTest && (isErrorStringCall(p.Info, n.X) || isErrorStringCall(p.Info, n.Y)) {
					p.Reportf(n.Pos(), "error detected by string comparison on err.Error(); match the typed sentinel with errors.Is")
				}
			case *ast.CallExpr:
				if isTest {
					return true
				}
				if p.pkgQualifier(f, n) == "strings" {
					switch calleeName(n) {
					case "Contains", "HasPrefix", "HasSuffix", "Index", "EqualFold":
						for _, arg := range n.Args {
							if isErrorStringCall(p.Info, arg) {
								p.Reportf(n.Pos(), "error detected by strings.%s over err.Error(); match the typed sentinel with errors.Is", calleeName(n))
								break
							}
						}
					}
				}
				if p.pkgQualifier(f, n) == "fmt" && calleeName(n) == "Errorf" {
					checkErrorfWrap(p, n)
				}
			}
			return true
		})
	}
}

// checkErrorfWrap flags fmt.Errorf calls that pass an error argument but
// never use the %w verb, which strips the sentinel from the chain.
func checkErrorfWrap(p *Pass, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil || strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if isErrorTyped(p.Info, arg) {
			p.Reportf(call.Pos(), "fmt.Errorf passes an error without %%w; the sentinel is flattened to text and errors.Is stops matching")
			return
		}
	}
}

// sentinelVar resolves an expression to an exported package-level Err*
// variable of type error, or nil.
func sentinelVar(info *types.Info, e ast.Expr) types.Object {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(x)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(x.Sel)
	default:
		return nil
	}
	if v, ok := obj.(*types.Var); ok && isSentinel(v) {
		return v
	}
	return nil
}

// isSentinel reports whether v is an exported package-level Err* variable
// of type error.
func isSentinel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope() && // package-level
		strings.HasPrefix(v.Name(), "Err") && v.Exported() && isErrorType(v.Type())
}

// isErrorStringCall reports whether e is a call of Error() on an error
// value.
func isErrorStringCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	t := info.TypeOf(sel.X)
	return t != nil && isErrorType(t)
}

func isErrorTyped(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return t != nil && isErrorType(t)
}

// isErrorType reports whether t implements the built-in error interface.
func isErrorType(t types.Type) bool {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType) || types.Implements(types.NewPointer(t), errType)
}

// --- whole-program: every sentinel has a wireErrors row -------------

// runSentinelProgram checks the one wire property httpapi's single code
// table cannot make structural: every exported Err* sentinel of
// internal/fsapi and internal/objstore has a wireErrors row. writeErr and
// decodeErr both read that table, so they cannot disagree on a code.
func runSentinelProgram(p *ProgramPass) {
	rows := wireErrorRows(p.Prog)
	if rows == nil {
		return // module has no httpapi wireErrors table (golden tests)
	}
	for _, suffix := range []string{"internal/fsapi", "internal/objstore"} {
		pkg := p.Prog.lookupPackage(suffix)
		if pkg == nil {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if v, ok := scope.Lookup(name).(*types.Var); ok && isSentinel(v) && !rows[objKey(v)] {
				p.Reportf(v.Pos(), "sentinel %s has no row in httpapi wireErrors; it crosses the wire as a bare 500 and the client loses the type", shortName(v))
			}
		}
	}
}

// wireErrorRows returns the objKeys of the sentinels named in httpapi's
// wireErrors composite literal, or nil when the module has no such table.
func wireErrorRows(prog *Program) map[string]bool {
	pkg := prog.lookupPackage("internal/httpapi")
	if pkg == nil {
		return nil
	}
	var rows map[string]bool
	for _, u := range prog.source {
		if u.pkg != pkg {
			continue
		}
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				vs, ok := n.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "wireErrors" || len(vs.Values) != 1 {
					return true
				}
				rows = map[string]bool{}
				ast.Inspect(vs.Values[0], func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok {
						if obj := sentinelVar(u.info, e); obj != nil {
							rows[objKey(obj)] = true
						}
					}
					return true
				})
				return false
			})
		}
	}
	return rows
}
