package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
    internal/objstore must appear in httpapi's server status mapping
    (writeErr) — otherwise it crosses the wire as a bare 500 and the
    client loses the type;
  - the server's code strings and the client's reconstruction table
    (decodeErr) must agree in both directions, where a code may
    collapse several sentinels into one (objstore.ErrNotFound and
    fsapi.ErrNotFound both travel as "not_found") as long as the
    reconstructed sentinel is one the server maps to that same code.`,
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
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil // not package-level
	}
	if !strings.HasPrefix(v.Name(), "Err") || !v.Exported() {
		return nil
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	return v
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

// --- whole-program: httpapi wire tables ------------------------------

// wireTables is what sentinel-taxonomy facts the program analyzer
// extracts from internal/httpapi.
type wireTables struct {
	// server: sentinel objKey -> code, plus positions for reporting.
	serverCodes map[string]string
	serverNames map[string]string // objKey -> display name
	serverPos   map[string]token.Pos
	writeErrPos token.Pos
	// client: code -> sentinel objKey.
	clientSentinels map[string]string
	clientNames     map[string]string // code -> display name
	clientPos       map[string]token.Pos
	decodeErrPos    token.Pos
}

func runSentinelProgram(p *ProgramPass) {
	tables := extractWireTables(p.Prog)
	if tables == nil {
		return // module has no httpapi package (golden tests)
	}

	// Every exported sentinel of the wire-crossing packages must appear in
	// the server mapping.
	for _, suffix := range []string{"internal/fsapi", "internal/objstore"} {
		pkg := p.Prog.lookupPackage(suffix)
		if pkg == nil {
			continue
		}
		scope := pkg.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok || !strings.HasPrefix(name, "Err") || !v.Exported() || !isErrorType(v.Type()) {
				continue
			}
			if _, mapped := tables.serverCodes[objKey(v)]; !mapped {
				p.Reportf(v.Pos(), "sentinel %s.%s is not mapped in httpapi writeErr; it crosses the wire as a bare 500 and the client loses the type", pkg.Name(), name)
			}
		}
	}

	// Server -> client: every code the server emits must reconstruct to a
	// sentinel the server maps to that same code (alias collapse allowed).
	serverByCode := map[string][]string{} // code -> sentinel objKeys
	var serverKeys []string
	for key := range tables.serverCodes {
		serverKeys = append(serverKeys, key)
	}
	sort.Strings(serverKeys)
	for _, key := range serverKeys {
		serverByCode[tables.serverCodes[key]] = append(serverByCode[tables.serverCodes[key]], key)
	}
	var codes []string
	for code := range serverByCode {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		back, ok := tables.clientSentinels[code]
		if !ok {
			p.Reportf(tables.serverPos[serverByCode[code][0]], "error code %q mapped by writeErr has no reconstruction case in decodeErr; clients get an untyped error", code)
			continue
		}
		if !containsString(serverByCode[code], back) {
			p.Reportf(tables.clientPos[code], "decodeErr reconstructs code %q as %s, but writeErr maps %s to a different code; the sentinel mutates across the wire", code, tables.clientNames[code], tables.clientNames[code])
		}
	}

	// Client -> server: every code the client recognizes must be one the
	// server can emit.
	var clientCodes []string
	for code := range tables.clientSentinels {
		clientCodes = append(clientCodes, code)
	}
	sort.Strings(clientCodes)
	for _, code := range clientCodes {
		if _, ok := serverByCode[code]; !ok {
			p.Reportf(tables.clientPos[code], "decodeErr handles code %q that writeErr never emits; dead reconstruction case or missing server mapping", code)
		}
	}
}

// extractWireTables parses httpapi's writeErr and decodeErr switches.
func extractWireTables(prog *Program) *wireTables {
	pkg := prog.lookupPackage("internal/httpapi")
	if pkg == nil {
		return nil
	}
	var httpUnit *unit
	for _, u := range prog.source {
		if u.pkg == pkg {
			httpUnit = u
		}
	}
	if httpUnit == nil {
		return nil
	}
	t := &wireTables{
		serverCodes: map[string]string{}, serverNames: map[string]string{}, serverPos: map[string]token.Pos{},
		clientSentinels: map[string]string{}, clientNames: map[string]string{}, clientPos: map[string]token.Pos{},
	}
	for _, f := range httpUnit.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			switch fd.Name.Name {
			case "writeErr":
				t.writeErrPos = fd.Pos()
				extractServerTable(httpUnit.info, fd, t)
			case "decodeErr":
				t.decodeErrPos = fd.Pos()
				extractClientTable(httpUnit.info, fd, t)
			}
		}
	}
	if !t.writeErrPos.IsValid() || !t.decodeErrPos.IsValid() {
		return nil
	}
	return t
}

// extractServerTable reads writeErr's switch: each case's errors.Is
// calls name sentinels, and the case body assigns the code string.
func extractServerTable(info *types.Info, fd *ast.FuncDecl, t *wireTables) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok || cc.List == nil {
				continue
			}
			code, ok := caseCodeString(cc.Body)
			if !ok {
				continue
			}
			for _, expr := range cc.List {
				call, ok := ast.Unparen(expr).(*ast.CallExpr)
				if !ok || calleeName(call) != "Is" || len(call.Args) != 2 {
					continue
				}
				obj := sentinelVar(info, call.Args[1])
				if obj == nil {
					continue
				}
				key := objKey(obj)
				t.serverCodes[key] = code
				t.serverNames[key] = shortName(obj)
				t.serverPos[key] = call.Args[1].Pos()
			}
		}
		return true
	})
}

// caseCodeString finds the string literal assigned to a variable named
// "code" in a case body.
func caseCodeString(body []ast.Stmt) (string, bool) {
	for _, stmt := range body {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok {
			continue
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name != "code" || i >= len(as.Rhs) {
				continue
			}
			if lit, ok := ast.Unparen(as.Rhs[i]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					return s, true
				}
			}
		}
	}
	return "", false
}

// extractClientTable reads decodeErr's switch over the code field: each
// case maps a code literal to the sentinel assigned in its body.
func extractClientTable(info *types.Info, fd *ast.FuncDecl, t *wireTables) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok || cc.List == nil {
				continue
			}
			var sentinel types.Object
			for _, bstmt := range cc.Body {
				as, ok := bstmt.(*ast.AssignStmt)
				if !ok {
					continue
				}
				for _, rhs := range as.Rhs {
					if obj := sentinelVar(info, rhs); obj != nil {
						sentinel = obj
					}
				}
			}
			if sentinel == nil {
				continue
			}
			for _, expr := range cc.List {
				lit, ok := ast.Unparen(expr).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				code, err := strconv.Unquote(lit.Value)
				if err != nil {
					continue
				}
				t.clientSentinels[code] = objKey(sentinel)
				t.clientNames[code] = shortName(sentinel)
				t.clientPos[code] = expr.Pos()
			}
		}
		return true
	})
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
