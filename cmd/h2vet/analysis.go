package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one invariant checker. Run inspects one unit via the Pass;
// RunProgram inspects the whole typed module at once via the ProgramPass.
// An analyzer may have either or both: sentinelcheck, for example, checks
// local comparison idioms per unit and table consistency program-wide.
// Long is the rule's documentation: what it computes, why the repo cares,
// how to satisfy or suppress it. `h2vet -explain <rule>` prints it, and
// it is the only long-form description of the rule anywhere.
type Analyzer struct {
	Name       string
	Doc        string
	Long       string
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
}

func allAnalyzers() []*Analyzer {
	return []*Analyzer{
		virtualtimeAnalyzer, mapiterAnalyzer, lockcheckAnalyzer, droppederrAnalyzer, atomiccheckAnalyzer,
		costcheckAnalyzer, lockorderAnalyzer, sentinelcheckAnalyzer,
		deadignoreAnalyzer,
	}
}

// Diagnostic is one finding, formatted as path:line:col: rule: message.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// Pass carries one unit through the analyzers.
type Pass struct {
	Fset       *token.FileSet
	Files      []*ast.File
	PkgPath    string
	ModulePath string
	Info       *types.Info

	rule string
	rep  *reporter
}

// Reportf records a diagnostic unless an ignore directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.rep.report(p.rule, p.Fset.Position(pos), format, args...)
}

// RelPkgPath is the package path relative to the module root ("" for the
// module root itself).
func (p *Pass) RelPkgPath() string {
	if p.PkgPath == p.ModulePath {
		return ""
	}
	return strings.TrimPrefix(p.PkgPath, p.ModulePath+"/")
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ProgramPass carries the whole typed module through a whole-program
// analyzer.
type ProgramPass struct {
	Prog *Program

	rule string
	rep  *reporter
}

// Reportf records a diagnostic unless an ignore directive suppresses it
// or the position lies outside the analyzed file set.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportfAt(p.Prog.fset.Position(pos), format, args...)
}

// ReportfAt is Reportf for an already-resolved source position.
func (p *ProgramPass) ReportfAt(position token.Position, format string, args ...any) {
	p.rep.report(p.rule, position, format, args...)
}

// reporter is the one path every finding takes, per-unit and
// whole-program alike. Findings are kept only in the files of the analysis
// units the command-line patterns selected, so `h2vet ./internal/cluster`
// never surfaces findings in unrelated directories even though
// whole-program rules always inspect the full module. A finding an
// //h2vet:ignore directive suppresses is dropped and the directive marked
// used, which is what deadignore judges. Per-unit passes run
// concurrently, so the shared state sits behind mu.
type reporter struct {
	dirs     directiveTable
	analyzed map[string]bool // filenames eligible for reporting

	mu    sync.Mutex
	used  map[*directive]bool
	diags []Diagnostic
}

func newReporter(prog *Program) *reporter {
	analyzed := map[string]bool{}
	for _, u := range prog.units {
		for _, f := range u.files {
			analyzed[prog.fset.Position(f.Pos()).Filename] = true
		}
	}
	return &reporter{dirs: prog.directives(), analyzed: analyzed, used: map[*directive]bool{}}
}

func (r *reporter) report(rule string, pos token.Position, format string, args ...any) {
	if !r.analyzed[pos.Filename] {
		return
	}
	d := r.dirs.suppressor(rule, pos)
	r.mu.Lock()
	defer r.mu.Unlock()
	if d != nil {
		r.used[d] = true
		return
	}
	r.diags = append(r.diags, Diagnostic{Pos: pos, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// splitRules splits a -rules flag value into trimmed rule names. Empty
// segments are preserved so the caller can report them as unknown rules
// rather than silently dropping typos like "a,,b".
func splitRules(s string) []string {
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

// exprText renders an identifier or selector chain ("b.mu", "s.reg").
// Non-chain expressions render as "".
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprText(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprText(e.X)
	}
	return ""
}

// calleeName returns the rightmost name of a call's function expression
// ("Sort" for slices.Sort, "Lock" for b.mu.Lock).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// pkgQualifier resolves the package a selector call is qualified with
// ("time" for time.Now()), or "" when the call is not package-qualified.
// When type information is incomplete it falls back to matching the
// identifier against the enclosing file's imports.
func (p *Pass) pkgQualifier(f *ast.File, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // resolved to a value, not a package
	}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndexByte(path, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// funcBodies yields every function body in the file along with its
// declaration-level context: FuncDecls and FuncLits are separate units
// (defer scopes differ).
func funcBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, n.Body)
			}
		case *ast.FuncLit:
			out = append(out, n.Body)
		}
		return true
	})
	return out
}

// inspectShallow walks n but does not descend into nested function
// literals, so per-function analyses stay within one defer scope.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		return fn(c)
	})
}
