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
		virtualtimeAnalyzer, mapiterAnalyzer, lockcheckAnalyzer, droppederrAnalyzer, backoffcheckAnalyzer,
		costcheckAnalyzer, lockorderAnalyzer, sentinelcheckAnalyzer,
		guardcheckAnalyzer, poolcheckAnalyzer, ctxcheckAnalyzer, atomiccheckAnalyzer,
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
		return a.Rule < b.Rule
	})
}

// Pass carries one unit through the analyzers.
type Pass struct {
	Fset       *token.FileSet
	Files      []*ast.File
	PkgPath    string
	ModulePath string
	Info       *types.Info

	rule    string
	ignores map[string]map[int]map[string]bool // file -> line -> rule set
	used    map[string]map[int]map[string]bool // directives that suppressed something
	diags   *[]Diagnostic
}

// Reportf records a diagnostic unless an ignore directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if file, line, rule, ok := ignoreMatch(p.ignores, p.rule, position); ok {
		markUsed(p.used, file, line, rule)
		return
	}
	*p.diags = append(*p.diags, Diagnostic{Pos: position, Rule: p.rule, Msg: fmt.Sprintf(format, args...)})
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
// analyzer. Reporting is restricted to the files of the analysis units
// the command-line patterns selected, so `h2vet ./internal/cluster` never
// surfaces findings in unrelated directories even though whole-program
// rules always inspect the full module.
type ProgramPass struct {
	Prog *Program

	rule     string
	ignores  map[string]map[int]map[string]bool
	used     map[string]map[int]map[string]bool
	analyzed map[string]bool // filenames eligible for reporting; nil = all
	diags    *[]Diagnostic
	mu       *sync.Mutex
}

// Reportf records a diagnostic unless an ignore directive suppresses it
// or the position lies outside the analyzed file set.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportfAt(p.Prog.fset.Position(pos), format, args...)
}

// ReportfAt is Reportf for an already-resolved source position.
func (p *ProgramPass) ReportfAt(position token.Position, format string, args ...any) {
	if p.analyzed != nil && !p.analyzed[position.Filename] {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if file, line, rule, ok := ignoreMatch(p.ignores, p.rule, position); ok {
		markUsed(p.used, file, line, rule)
		return
	}
	*p.diags = append(*p.diags, Diagnostic{Pos: position, Rule: p.rule, Msg: fmt.Sprintf(format, args...)})
}

// ignoreMatch finds the "//h2vet:ignore" directive suppressing a rule
// diagnostic at pos — on the same line or the line above — and returns
// the directive's location and the rule name it was written with ("all"
// when a blanket directive matched), so the caller can record the
// directive as live.
func ignoreMatch(ignores map[string]map[int]map[string]bool, rule string, pos token.Position) (string, int, string, bool) {
	lines := ignores[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		switch rules := lines[line]; {
		case rules[rule]:
			return pos.Filename, line, rule, true
		case rules["all"]:
			return pos.Filename, line, "all", true
		}
	}
	return "", 0, "", false
}

// markUsed records that the directive at file:line for rule suppressed a
// diagnostic. Usage feeds the deadignore rule: directives that never
// suppress anything are themselves findings.
func markUsed(used map[string]map[int]map[string]bool, file string, line int, rule string) {
	if used == nil {
		return
	}
	lines := used[file]
	if lines == nil {
		lines = map[int]map[string]bool{}
		used[file] = lines
	}
	rules := lines[line]
	if rules == nil {
		rules = map[string]bool{}
		lines[line] = rules
	}
	rules[rule] = true
}

func runAnalyzers(u *unit, analyzers []*Analyzer) ([]Diagnostic, map[string]map[int]map[string]bool) {
	var diags []Diagnostic
	ignores := map[string]map[int]map[string]bool{}
	collectIgnores(u, ignores)
	used := map[string]map[int]map[string]bool{}
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Fset:       u.fset,
			Files:      u.files,
			PkgPath:    u.pkgPath,
			ModulePath: u.module,
			Info:       u.info,
			rule:       a.Name,
			ignores:    ignores,
			used:       used,
			diags:      &diags,
		}
		a.Run(pass)
	}
	return diags, used
}

// programIgnores gathers //h2vet:ignore directives across every loaded
// unit — whole-program rules report anywhere in the module, so their
// suppression table must span it too.
func programIgnores(prog *Program) map[string]map[int]map[string]bool {
	ignores := map[string]map[int]map[string]bool{}
	for _, u := range prog.source {
		collectIgnores(u, ignores)
	}
	for _, u := range prog.units {
		collectIgnores(u, ignores)
	}
	return ignores
}

// analyzedFiles is the set of filenames belonging to the analysis units
// the command-line patterns selected; findings elsewhere are dropped.
func analyzedFiles(prog *Program) map[string]bool {
	analyzed := map[string]bool{}
	for _, u := range prog.units {
		for _, f := range u.files {
			analyzed[prog.fset.Position(f.Pos()).Filename] = true
		}
	}
	return analyzed
}

// runProgramAnalyzers runs the whole-program half of each analyzer over
// the shared typed module. ignores and the analyzed-file set span every
// loaded unit so suppression directives work identically for both kinds
// of rule.
func runProgramAnalyzers(prog *Program, analyzers []*Analyzer) ([]Diagnostic, map[string]map[int]map[string]bool) {
	ignores := programIgnores(prog)
	analyzed := analyzedFiles(prog)
	used := map[string]map[int]map[string]bool{}
	var diags []Diagnostic
	var mu sync.Mutex
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		a.RunProgram(&ProgramPass{
			Prog:     prog,
			rule:     a.Name,
			ignores:  ignores,
			used:     used,
			analyzed: analyzed,
			diags:    &diags,
			mu:       &mu,
		})
	}
	return diags, used
}

// collectIgnores gathers //h2vet:ignore directives per file and line into
// the shared table.
func collectIgnores(u *unit, out map[string]map[int]map[string]bool) {
	for _, f := range u.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rule, ok := parseIgnoreDirective(c.Text)
				if !ok {
					continue
				}
				pos := u.fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					out[pos.Filename] = lines
				}
				rules := lines[pos.Line]
				if rules == nil {
					rules = map[string]bool{}
					lines[pos.Line] = rules
				}
				rules[rule] = true
			}
		}
	}
}

// parseIgnoreDirective parses one comment's text as an
// "//h2vet:ignore <rule> <reason>" directive, returning the suppressed
// rule name. The reason is free text and not interpreted.
func parseIgnoreDirective(text string) (rule string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//h2vet:ignore")
	if !ok {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], true
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
