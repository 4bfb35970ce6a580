package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// unit is one type-checked bundle of files: a package together with its
// in-package _test.go files, or an external package_test package.
type unit struct {
	pkgPath string // import path (module path + relative directory)
	module  string // module path from go.mod
	dir     string
	fset    *token.FileSet
	files   []*ast.File
	info    *types.Info
	pkg     *types.Package
}

// Program is the whole typed module, loaded and type-checked once and
// shared by every analyzer.
//
//   - source holds exactly one non-test unit per module package, all
//     type-checked in a single shared universe (module-internal imports
//     resolve to the very *types.Package objects produced here), so
//     cross-package object identity holds and whole-program analyzers can
//     build a call graph over go/types.
//   - units holds the analysis units the command-line patterns selected:
//     the package including its in-package _test.go files, plus external
//     _test packages. Per-unit analyzers run over these.
type Program struct {
	fset   *token.FileSet
	module string
	units  []*unit
	source []*unit
	pkgs   map[string]*types.Package

	graphOnce sync.Once
	graph     *callGraph
	dirsOnce  sync.Once
	dirs      directiveTable
}

// callGraph builds (once) and returns the program's CHA call graph.
func (p *Program) callGraph() *callGraph {
	p.graphOnce.Do(func() { p.graph = buildCallGraph(p) })
	return p.graph
}

// lookupPackage finds a module package by its path suffix (e.g.
// "internal/objstore"), searching the shared universe first and then the
// transitive imports of every unit — the latter matters in golden tests,
// where real module packages arrive via the source importer rather than
// as program units.
func (p *Program) lookupPackage(suffix string) *types.Package {
	if pkg, ok := p.pkgs[p.module+"/"+suffix]; ok && pkg != nil {
		return pkg
	}
	seen := map[*types.Package]bool{}
	var find func(pkg *types.Package) *types.Package
	find = func(pkg *types.Package) *types.Package {
		if pkg == nil || seen[pkg] {
			return nil
		}
		seen[pkg] = true
		if pkg.Path() == p.module+"/"+suffix {
			return pkg
		}
		for _, imp := range pkg.Imports() {
			if got := find(imp); got != nil {
				return got
			}
		}
		return nil
	}
	for _, u := range append(append([]*unit{}, p.source...), p.units...) {
		if got := find(u.pkg); got != nil {
			return got
		}
	}
	return nil
}

// moduleImporter resolves module-internal imports to the packages the
// loader already checked, falling back to the stdlib source importer for
// everything else. The fallback is serialized: srcimporter is not safe
// for concurrent use, while reads of completed packages are.
type moduleImporter struct {
	mu       sync.Mutex
	pkgs     map[string]*types.Package
	fallback types.ImporterFrom
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pkg, ok := m.pkgs[path]; ok && pkg != nil {
		return pkg, nil
	}
	//h2vet:ignore lockorder fallback is the stdlib source importer, never another moduleImporter; the lock also serializes srcimporter, which is not concurrency-safe
	return m.fallback.ImportFrom(path, dir, mode)
}

func (m *moduleImporter) add(path string, pkg *types.Package) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pkg != nil {
		m.pkgs[path] = pkg
	}
}

// dirPkg groups one directory's files of one package name, split into
// importable sources and in-package test files. External _test packages
// carry their files in files (they have no importable half).
type dirPkg struct {
	name      string
	files     []*ast.File
	testFiles []*ast.File
}

// load parses the entire module once, type-checks every package once into
// a shared universe (topological order over module-internal imports), and
// returns the Program. The command-line patterns select which analysis
// units per-unit analyzers report on; whole-program analyzers always see
// the full module. Type errors are reported as warnings, not fatal:
// `go build` owns compile errors, h2vet owns invariants.
func load(patterns []string) (*Program, []string, error) {
	root, module, err := moduleRoot()
	if err != nil {
		return nil, nil, err
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	selected, err := expandPatterns(patterns)
	if err != nil {
		return nil, nil, err
	}
	allDirs, err := moduleDirs(root, cwd)
	if err != nil {
		return nil, nil, err
	}
	selectedSet := map[string]bool{}
	for _, d := range selected {
		selectedSet[d] = true
		if !containsDir(allDirs, d) {
			allDirs = append(allDirs, d)
		}
	}
	sort.Strings(allDirs)

	fset := token.NewFileSet()
	var warnings []string
	var warnMu sync.Mutex
	warnf := func(msg string) {
		warnMu.Lock()
		defer warnMu.Unlock()
		warnings = append(warnings, msg)
	}

	// Parse every directory once.
	parsed := map[string]map[string]*dirPkg{} // dir -> package name -> files
	for _, dir := range allDirs {
		pkgs, warns, err := parseDir(fset, dir)
		if err != nil {
			return nil, nil, err
		}
		for _, w := range warns {
			warnf(w)
		}
		parsed[dir] = pkgs
	}

	// Topologically order the importable (non-_test) packages by their
	// module-internal imports, so each is checked after its dependencies.
	type pkgEntry struct {
		dir, name, path string
		dp              *dirPkg
		source          *unit
	}
	byPath := map[string]*pkgEntry{}
	var paths []string
	for _, dir := range allDirs {
		for name, dp := range parsed[dir] {
			if strings.HasSuffix(name, "_test") || len(dp.files) == 0 {
				continue
			}
			path := importPath(root, module, dir)
			if _, dup := byPath[path]; dup {
				continue
			}
			byPath[path] = &pkgEntry{dir: dir, name: name, path: path, dp: dp}
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	var order []*pkgEntry
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		e, ok := byPath[path]
		if !ok || state[path] != 0 {
			return
		}
		state[path] = 1
		for _, dep := range moduleImports(module, e.dp.files) {
			visit(dep)
		}
		state[path] = 2
		order = append(order, e)
	}
	for _, path := range paths {
		visit(path)
	}

	imp := &moduleImporter{
		pkgs:     map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	check := func(pkgPath string, files []*ast.File) (*types.Package, *types.Info) {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { warnf(err.Error()) },
		}
		// The returned error repeats the first collected warning, so the
		// lenient check discards it.
		pkg, _ := conf.Check(pkgPath, fset, files, info)
		return pkg, info
	}

	prog := &Program{fset: fset, module: module, pkgs: imp.pkgs}
	for _, e := range order {
		pkg, info := check(e.path, e.dp.files)
		imp.add(e.path, pkg)
		e.source = &unit{pkgPath: e.path, module: module, dir: e.dir, fset: fset, files: e.dp.files, info: info, pkg: pkg}
		prog.source = append(prog.source, e.source)
	}

	// Build the analysis units the patterns selected. Packages whose test
	// files add nothing reuse the shared source unit; the rest re-check
	// with tests merged in. Those checks are independent (every module
	// import already resolves through the shared map), so they run in
	// parallel; unit order stays deterministic via preassigned slots.
	type job struct {
		slot    int
		pkgPath string
		dir     string
		files   []*ast.File
	}
	var jobs []job
	for _, dir := range allDirs {
		if !selectedSet[dir] {
			continue
		}
		names := make([]string, 0, len(parsed[dir]))
		for name := range parsed[dir] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			dp := parsed[dir][name]
			pkgPath := importPath(root, module, dir)
			switch {
			case !strings.HasSuffix(name, "_test") && len(dp.testFiles) == 0 && len(dp.files) > 0:
				if e := byPath[pkgPath]; e != nil && e.source != nil && e.name == name {
					prog.units = append(prog.units, e.source)
					continue
				}
				fallthrough
			default:
				files := append(append([]*ast.File{}, dp.files...), dp.testFiles...)
				if len(files) == 0 {
					continue
				}
				prog.units = append(prog.units, nil)
				jobs = append(jobs, job{slot: len(prog.units) - 1, pkgPath: pkgPath, dir: dir, files: files})
			}
		}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			pkg, info := check(j.pkgPath, j.files)
			prog.units[j.slot] = &unit{pkgPath: j.pkgPath, module: module, dir: j.dir, fset: fset, files: j.files, info: info, pkg: pkg}
		}(j)
	}
	wg.Wait()

	sort.Strings(warnings)
	return prog, warnings, nil
}

// containsDir reports whether dirs already contains dir.
func containsDir(dirs []string, dir string) bool {
	for _, d := range dirs {
		if d == dir {
			return true
		}
	}
	return false
}

// moduleDirs walks the module root and returns every directory containing
// Go files, expressed relative to the working directory so diagnostic
// paths stay short and machine-independent.
func moduleDirs(root, cwd string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "bin") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(cwd, path)
		if err != nil {
			return err
		}
		if hasGoFiles(rel) {
			dirs = append(dirs, rel)
		}
		return nil
	})
	return dirs, err
}

// moduleImports returns the sorted module-internal import paths of files.
func moduleImports(module string, files []*ast.File) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if (path == module || strings.HasPrefix(path, module+"/")) && !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// moduleRoot walks up from the working directory to go.mod and returns
// the directory and the module path it declares.
func moduleRoot() (dir, module string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("go.mod not found above working directory")
		}
		dir = parent
	}
}

// expandPatterns resolves command-line patterns to a sorted list of
// directories containing Go files. "dir/..." walks recursively.
func expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "..."); ok {
			base = filepath.Clean(strings.TrimSuffix(base, "/"))
			if base == "" {
				base = "."
			}
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor" || name == "bin") {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := filepath.Clean(pat)
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("%s: not a directory", pat)
		}
		add(dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// parseDir parses every .go file in dir and groups the files by package
// name, splitting in-package _test.go files from the importable sources.
// External _test packages keep all their files in files.
func parseDir(fset *token.FileSet, dir string) (map[string]*dirPkg, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	pkgs := map[string]*dirPkg{}
	var warnings []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			warnings = append(warnings, err.Error())
			continue
		}
		pkgName := f.Name.Name
		dp := pkgs[pkgName]
		if dp == nil {
			dp = &dirPkg{name: pkgName}
			pkgs[pkgName] = dp
		}
		if strings.HasSuffix(name, "_test.go") && !strings.HasSuffix(pkgName, "_test") {
			dp.testFiles = append(dp.testFiles, f)
		} else {
			dp.files = append(dp.files, f)
		}
	}
	return pkgs, warnings, nil
}

// importPath maps a directory to its import path under the module.
func importPath(root, module, dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return module
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || rel == "." {
		return module
	}
	return module + "/" + filepath.ToSlash(rel)
}
