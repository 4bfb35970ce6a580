package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// alloccheckAnalyzer budgets heap allocations on the simulator's hot
// paths. The hot-path set is computed from the call graph: everything
// reachable from an objstore.Store or objstore.Batcher primitive of a
// program type, from the NameRing codec/merge routines
// (core.Encode*/Decode*/Merged and the NameRing
// AppendAll/All/Live/Range/Merge methods the pooled codecs are
// built on) and the MD5 ring placement methods
// (ring.Ring.Partition/Devices/PartitionDevices plus their
// *Append variants and the cached DeviceIDs), plus explicit
//
//	//h2vet:hotpath
//
// opt-ins on a function declaration. Inside hot functions it flags the
// per-operation allocation patterns that cap how big an n/m/d the bench
// sweeps can afford:
//
//   - fmt.Sprintf/fmt.Sprint/fmt.Errorf off the error path (returns and
//     branches that produce an error value are exempt);
//   - append in a loop growing a slice declared without capacity;
//   - string <-> []byte round-trip conversions ([]byte(string(b)));
//   - map allocations (literal or make) and composite literals inside
//     loops — one allocation per element is the classic encode/decode
//     regression.
//
// `h2vet -explain alloccheck` prints the computed hot-path set.
var alloccheckAnalyzer = &Analyzer{
	Name:       "alloccheck",
	Doc:        "hot-path functions (Store/Batcher/NameRing/placement reachable) avoid per-op heap allocation patterns",
	RunProgram: runAlloccheck,
}

// hotSet maps every hot-path function to the reason it is hot, with a
// deterministic iteration order.
type hotSet struct {
	reason map[*types.Func]string
	order  []*types.Func
}

// computeHotSet resolves the hot-path entry points and walks the call
// graph to closure.
func computeHotSet(prog *Program) *hotSet {
	g := prog.callGraph()
	hs := &hotSet{reason: map[*types.Func]string{}}
	add := func(fn *types.Func, reason string) {
		if fn == nil || g.funcs[fn] == nil {
			return
		}
		if _, ok := hs.reason[fn]; ok {
			return
		}
		hs.reason[fn] = reason
		hs.order = append(hs.order, fn)
	}

	// Store and Batcher primitives of every implementing program type.
	for _, spec := range []struct{ kind, name string }{
		{"objstore.Store primitive", "Store"},
		{"objstore.Batcher primitive", "Batcher"},
	} {
		iface := objstoreInterface(prog, spec.name)
		if iface == nil {
			continue
		}
		for _, named := range g.named {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					add(fn, spec.kind)
				}
			}
		}
	}

	// NameRing codec and merge routines, including the append-into-
	// caller-buffer iteration APIs the pooled codecs are built on.
	if pkg := prog.lookupPackage("internal/core"); pkg != nil {
		names := pkg.Scope().Names()
		sort.Strings(names)
		for _, name := range names {
			if !strings.HasPrefix(name, "Encode") && !strings.HasPrefix(name, "Decode") && name != "Merged" {
				continue
			}
			if fn, ok := pkg.Scope().Lookup(name).(*types.Func); ok {
				add(fn, "NameRing codec/merge")
			}
		}
		if obj := pkg.Scope().Lookup("NameRing"); obj != nil {
			ptr := types.NewPointer(obj.Type())
			for _, name := range []string{"AppendAll", "All", "Live", "Range", "Merge"} {
				m, _, _ := types.LookupFieldOrMethod(ptr, true, pkg, name)
				if fn, ok := m.(*types.Func); ok {
					add(fn, "NameRing codec/merge")
				}
			}
		}
		// Sharded-directory routing: ShardOf runs once per tuple in the
		// one-pass extent encoder (EncodeNameRingExtents, hot by its Encode
		// prefix above) and on every patch route; MergedExtents folds a
		// whole fan-in read.
		for _, name := range []string{"ShardOf", "MergedExtents"} {
			if fn, ok := pkg.Scope().Lookup(name).(*types.Func); ok {
				add(fn, "shard routing")
			}
		}
	}

	// MD5 ring placement, cached variants included.
	if pkg := prog.lookupPackage("internal/ring"); pkg != nil {
		if obj := pkg.Scope().Lookup("Ring"); obj != nil {
			ptr := types.NewPointer(obj.Type())
			for _, name := range []string{
				"Partition", "Devices", "DevicesAppend",
				"PartitionDevices", "PartitionDevicesAppend",
				"DeviceIDs", "DeviceIDsAppend",
			} {
				m, _, _ := types.LookupFieldOrMethod(ptr, true, pkg, name)
				if fn, ok := m.(*types.Func); ok {
					add(fn, "ring placement")
				}
			}
		}
	}

	// Explicit opt-ins.
	dirs := collectLineDirectives(prog.source, "hotpath")
	fns := make([]*types.Func, 0, len(g.funcs))
	for fn := range g.funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return objKey(fns[i]) < objKey(fns[j]) })
	for _, fn := range fns {
		pos := prog.fset.Position(g.funcs[fn].decl.Pos())
		if _, ok := directiveFor(dirs, pos.Filename, pos.Line); ok {
			add(fn, "//h2vet:hotpath")
		}
	}

	// Closure over the call graph.
	queue := append([]*types.Func{}, hs.order...)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, callee := range g.funcs[cur].callees {
			if g.funcs[callee] == nil {
				continue
			}
			if _, ok := hs.reason[callee]; ok {
				continue
			}
			root := hs.reason[cur]
			if !strings.HasPrefix(root, "reachable") {
				root = "reachable from " + shortName(cur)
			}
			hs.reason[callee] = root
			hs.order = append(hs.order, callee)
			queue = append(queue, callee)
		}
	}
	return hs
}

func runAlloccheck(p *ProgramPass) {
	g := p.Prog.callGraph()
	hs := computeHotSet(p.Prog)
	for _, fn := range hs.order {
		checkHotFunc(p, g.funcs[fn])
	}
}

// checkHotFunc scans one hot function for per-op allocation patterns.
func checkHotFunc(p *ProgramPass, fi *funcInfo) {
	info := fi.unit.info
	body := fi.decl.Body

	// Loop body ranges and error-path ranges, by position.
	type span struct{ start, end token.Pos }
	var loops, errPaths []span
	contains := func(spans []span, pos token.Pos) bool {
		for _, s := range spans {
			if s.start <= pos && pos <= s.end {
				return true
			}
		}
		return false
	}
	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	isErrorExpr := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		return t != nil && types.Implements(t, errorType)
	}
	blockHasErrorReturn := func(n ast.Node) bool {
		has := false
		ast.Inspect(n, func(c ast.Node) bool {
			if ret, ok := c.(*ast.ReturnStmt); ok {
				for _, res := range ret.Results {
					if isErrorExpr(res) {
						has = true
					}
				}
			}
			return !has
		})
		return has
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
		case *ast.IfStmt:
			if blockHasErrorReturn(n.Body) {
				errPaths = append(errPaths, span{n.Body.Pos(), n.Body.End()})
			}
			if n.Else != nil && blockHasErrorReturn(n.Else) {
				errPaths = append(errPaths, span{n.Else.Pos(), n.Else.End()})
			}
		case *ast.CaseClause, *ast.CommClause:
			if blockHasErrorReturn(n) {
				errPaths = append(errPaths, span{n.Pos(), n.End()})
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if isErrorExpr(res) {
					errPaths = append(errPaths, span{n.Pos(), n.End()})
					break
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				errPaths = append(errPaths, span{n.Pos(), n.End()})
			}
		}
		return true
	})

	// Local slice declarations without capacity, for the append rule.
	unsized := map[types.Object]bool{}
	declPos := map[types.Object]token.Pos{}
	recordDecl := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[id]
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		declPos[obj] = id.Pos()
		switch rhs := ast.Unparen(rhs).(type) {
		case nil:
			unsized[obj] = true // var x []T
		case *ast.CompositeLit:
			unsized[obj] = true // x := []T{...}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && id.Name == "make" && len(rhs.Args) < 3 {
				unsized[obj] = true // make([]T, n) without cap
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					recordDecl(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				for _, id := range n.Names {
					recordDecl(id, nil)
				}
			} else if len(n.Values) == len(n.Names) {
				for i, id := range n.Names {
					recordDecl(id, n.Values[i])
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// fmt.Sprintf/Sprint/Sprintln/Errorf off the error path.
			if name := calleeName(n); name == "Sprintf" || name == "Sprint" || name == "Sprintln" || name == "Errorf" {
				if pkgQual(info, n) == "fmt" && !contains(errPaths, n.Pos()) {
					p.Reportf(n.Pos(), "fmt.%s allocates per call on the hot path; build the value with strconv/append or move it to an error path", name)
				}
			}
			// append growing an unsized local slice inside a loop.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				if target, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
					if obj := info.ObjectOf(target); obj != nil && unsized[obj] &&
						contains(loops, n.Pos()) && !contains(loops, declPos[obj]) {
						p.Reportf(n.Pos(), "append grows %s in a hot-path loop but it was declared without capacity; pre-size it with make(..., 0, n)", target.Name)
					}
				}
			}
			// string <-> []byte round trips.
			if inner, ok := conversionArg(info, n); ok {
				if innerCall, ok := ast.Unparen(inner).(*ast.CallExpr); ok {
					if _, ok := conversionArg(info, innerCall); ok {
						outer, innerT := info.TypeOf(n), info.TypeOf(innerCall)
						if isStringByteFlip(outer, innerT) {
							p.Reportf(n.Pos(), "string <-> []byte round-trip conversion allocates twice on the hot path; keep one representation")
						}
					}
				}
			}
			// make(map...) in a loop.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
				if t := info.TypeOf(n); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok && contains(loops, n.Pos()) && !contains(errPaths, n.Pos()) {
						p.Reportf(n.Pos(), "map allocated per iteration in a hot-path loop; hoist it out of the loop or reuse one map")
					}
				}
			}
		case *ast.CompositeLit:
			if !contains(loops, n.Pos()) || contains(errPaths, n.Pos()) {
				return true
			}
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				p.Reportf(n.Pos(), "map literal allocated per iteration in a hot-path loop; hoist it out of the loop or reuse one map")
			case *types.Slice:
				p.Reportf(n.Pos(), "slice literal allocated per iteration in a hot-path loop; hoist it out of the loop or reuse a buffer")
			}
		}
		return true
	})
}

// conversionArg returns the single argument of a type-conversion call.
func conversionArg(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	if len(call.Args) != 1 {
		return nil, false
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return call.Args[0], true
}

// isStringByteFlip reports whether outer/inner are []byte over string or
// string over []byte — a round trip either way.
func isStringByteFlip(outer, inner types.Type) bool {
	if outer == nil || inner == nil {
		return false
	}
	return (isByteSlice(outer) && isString(inner)) || (isString(outer) && isByteSlice(inner))
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte || ok && b.Kind() == types.Uint8
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pkgQual resolves the package path a selector call is qualified with,
// using type information only (program analyzers have complete info).
func pkgQual(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
