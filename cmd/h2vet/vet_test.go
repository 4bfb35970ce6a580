package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"sort"
	"testing"
)

const testModule = "github.com/h2cloud/h2cloud"

// The goldens of this test binary share one typed universe: one FileSet
// and one source importer, so the standard library and the real module
// packages a golden imports (internal/objstore, internal/core, ...) are
// parsed and type-checked once per `go test`, not once per case. Tests
// here never run in parallel: the source importer is not safe for
// concurrent use.
var (
	testFset     = token.NewFileSet()
	testImporter = importer.ForCompiler(testFset, "source", nil).(types.ImporterFrom)
)

// golden is one case of a rule's table: a source file and the diagnostics
// the rule must report on it, in order. file overrides the table's
// default placement (a _test.go name, a package outside internal/).
type golden struct {
	name string
	file string
	src  string
	want []string
}

// runGoldens checks every case against one analyzer: the case's src at its
// file (module-relative, like "internal/fake/impl.go"), beside the extra
// files the whole table shares.
func runGoldens(t *testing.T, a *Analyzer, file string, extra map[string]string, cases []golden) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{}
			for name, src := range extra {
				files[name] = src
			}
			at := file
			if tc.file != "" {
				at = tc.file
			}
			files[at] = tc.src
			expectDiags(t, checkProgram(t, files, a), tc.want)
		})
	}
}

// checkProgram type-checks a mini multi-package module (file name ->
// source, names module-relative) into a Program — the same pipeline
// h2vet ./... uses — and returns the analyzers' formatted diagnostics,
// per-unit and whole-program halves both. Packages named like real module
// packages (internal/objstore, internal/httpapi) shadow the real ones, so
// goldens control both sides of every whole-program fact.
func checkProgram(t *testing.T, files map[string]string, analyzers ...*Analyzer) []string {
	t.Helper()
	var out []string
	for _, d := range runAll(buildTestProgram(t, files), analyzers, false) {
		out = append(out, d.String())
	}
	return out
}

// buildTestProgram type-checks a mini module into the Program shape the
// analyzers (and the call-graph goldens) consume.
func buildTestProgram(t *testing.T, files map[string]string) *Program {
	t.Helper()
	pkgFiles := map[string][]*ast.File{}
	var names []string
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(testFset, name, files[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		p := testModule + "/" + path.Dir(name)
		pkgFiles[p] = append(pkgFiles[p], f)
	}
	var paths []string
	for p := range pkgFiles {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var order []string
	state := map[string]int{}
	var visit func(p string)
	visit = func(p string) {
		if _, ok := pkgFiles[p]; !ok || state[p] != 0 {
			return
		}
		state[p] = 1
		for _, dep := range moduleImports(testModule, pkgFiles[p]) {
			visit(dep)
		}
		state[p] = 2
		order = append(order, p)
	}
	for _, p := range paths {
		visit(p)
	}

	imp := &moduleImporter{pkgs: map[string]*types.Package{}, fallback: testImporter}
	prog := &Program{fset: testFset, module: testModule, pkgs: imp.pkgs}
	for _, p := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { t.Logf("type error: %v", err) },
		}
		pkg, _ := conf.Check(p, testFset, pkgFiles[p], info)
		imp.add(p, pkg)
		u := &unit{pkgPath: p, module: testModule, fset: testFset, files: pkgFiles[p], info: info, pkg: pkg}
		prog.source = append(prog.source, u)
		prog.units = append(prog.units, u)
	}
	return prog
}

func expectDiags(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\ngot:  %q\nwant: %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

func TestIgnoreDirectiveScope(t *testing.T) {
	// A directive suppresses its own line and the next, but not farther.
	got := checkProgram(t, map[string]string{"internal/core/src.go": `package core

import "time"

func a() time.Time { return time.Now() } //h2vet:ignore virtualtime same line

//h2vet:ignore virtualtime next line
func b() time.Time { return time.Now() }

func c() time.Time { return time.Now() }
`}, virtualtimeAnalyzer)
	expectDiags(t, got, []string{
		"internal/core/src.go:10:29: virtualtime: call to time.Now in simulator package internal/core; charge internal/vclock or use an injected clock",
	})
}
