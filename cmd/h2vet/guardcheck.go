package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

var guardcheckAnalyzer = &Analyzer{
	Name:       "guardcheck",
	Doc:        "goroutine-reachable accesses to mutex-guarded struct fields hold the inferred or annotated guard",
	RunProgram: runGuardcheck,
	Long: `guardcheck is static race detection tuned to this repo's lock
idioms. It infers a field -> mutex guard map per struct: a non-mutex
field whose access sites hold the same sibling mutex class in the
clear majority of cases (at least 2 sites and >= 75% of all sites) is
considered guarded by it, and an explicit

    //h2vet:guardedby <mutex>

annotation on the field declaration (same line or the line above)
seeds the map directly (a wrong mutex name is itself a finding).
Locksets are propagated through the CHA call
graph — a helper that never locks but is only called with the lock
held (the *Locked naming idiom) inherits the callers' lockset — and
code inside a go-launched function literal starts from the empty
lockset, because the spawner's locks are not held on the new
goroutine. A diagnostic fires for every access to a guarded field
that is reachable from some go statement without the guard held:
exactly the accesses a concurrent traffic driver can race on.

Run h2vet -explain guardcheck -pkg <path> [patterns] to print the
inferred guard table.`,
}

// lockSpan is one static mutex-held region of a function body: from the
// Lock/RLock call to the matching direct Unlock, or to the end of the
// enclosing defer scope when the unlock is deferred or absent.
type lockSpan struct {
	cls        *types.Var
	start, end token.Pos
}

// goLit is a function literal launched directly by a `go` statement,
// with the statement's position as the race witness.
type goLit struct {
	lit   *ast.FuncLit
	goPos token.Pos
}

// funcLocks caches one function's lock spans and go-launched literal
// ranges for lockset queries.
type funcLocks struct {
	spans  []lockSpan
	goLits []goLit
}

// collectFuncLocks computes the lock spans of one declared function,
// function literals included, using the same span discipline as
// lockorder: deferred unlocks hold to scope end, direct unlocks close
// the span early.
func collectFuncLocks(fi *funcInfo) *funcLocks {
	info := fi.unit.info
	fl := &funcLocks{}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				fl.goLits = append(fl.goLits, goLit{lit: lit, goPos: g.Pos()})
			}
		}
		return true
	})
	for _, scope := range lockScopes(fi.decl) {
		type acq struct {
			cls      *types.Var
			pos, end token.Pos
		}
		var spans []acq
		type rel struct {
			cls *types.Var
			pos token.Pos
		}
		var unlocks []rel
		inspectShallow(scope, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			cls, method, ok := mutexClass(info, call)
			if !ok {
				return true
			}
			switch method {
			case "Lock", "RLock":
				spans = append(spans, acq{cls: cls, pos: call.Pos(), end: scope.End()})
			case "Unlock", "RUnlock":
				unlocks = append(unlocks, rel{cls: cls, pos: call.Pos()})
			}
			return true
		})
		deferredAt := map[token.Pos]bool{}
		var blocks []ast.Node
		inspectShallow(scope, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.DeferStmt:
				deferredAt[n.(*ast.DeferStmt).Call.Pos()] = true
			case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
				blocks = append(blocks, n)
			}
			return true
		})
		// Innermost enclosing block of a position: an unlock only closes a
		// span opened in the same block. Unlocks in nested branches are
		// early exits (`if err != nil { mu.Unlock(); return err }`) — on
		// the fallthrough path the lock is still held.
		innermost := func(pos token.Pos) ast.Node {
			var best ast.Node
			for _, b := range blocks {
				if b.Pos() <= pos && pos <= b.End() && (best == nil || b.Pos() >= best.Pos()) {
					best = b
				}
			}
			return best
		}
		for i := range spans {
			for _, ul := range unlocks {
				if ul.cls == spans[i].cls && ul.pos > spans[i].pos && ul.pos < spans[i].end &&
					!deferredAt[ul.pos] && innermost(ul.pos) == innermost(spans[i].pos) {
					spans[i].end = ul.pos
				}
			}
			fl.spans = append(fl.spans, lockSpan{cls: spans[i].cls, start: spans[i].pos, end: spans[i].end})
		}
	}
	return fl
}

// litAt returns the innermost go-launched literal containing pos, or nil.
func (fl *funcLocks) litAt(pos token.Pos) *goLit {
	var innermost *goLit
	for i := range fl.goLits {
		l := &fl.goLits[i]
		if l.lit.Pos() <= pos && pos <= l.lit.End() {
			if innermost == nil || l.lit.Pos() > innermost.lit.Pos() {
				innermost = l
			}
		}
	}
	return innermost
}

// heldAt returns the mutex classes statically held at pos. Code inside a
// go-launched function literal runs on a fresh goroutine, so only spans
// opened inside the innermost such literal count there (fresh reports
// that case).
func (fl *funcLocks) heldAt(pos token.Pos) (held map[*types.Var]bool, fresh bool) {
	lit := fl.litAt(pos)
	held = map[*types.Var]bool{}
	for _, sp := range fl.spans {
		if sp.start >= pos || pos >= sp.end {
			continue
		}
		if lit != nil && (sp.start < lit.lit.Pos() || sp.start > lit.lit.End()) {
			continue
		}
		held[sp.cls] = true
	}
	return held, lit != nil
}

// guardedStruct is one program struct that declares at least one named
// sync.Mutex/RWMutex field and is therefore eligible for guard
// inference.
type guardedStruct struct {
	named   *types.Named
	mutexes []*types.Var // the struct's mutex fields, in declaration order
}

// guardAccess is one read or write of a tracked struct field.
type guardAccess struct {
	field *types.Var
	pos   token.Pos
	fn    *types.Func
}

// guardFact is the inference result for one field.
type guardFact struct {
	owner     *guardedStruct
	field     *types.Var
	guard     *types.Var // nil: no guard inferred or annotated
	annotated bool
	guarded   int // access sites holding guard
	total     int // all access sites
}

// guardAnalysis bundles everything guardcheck computes; -explain reuses
// it to print the inferred guard table.
type guardAnalysis struct {
	prog     *Program
	g        *callGraph
	owner    map[*types.Var]*guardedStruct       // non-mutex field -> declaring struct
	locks    map[*types.Func]*funcLocks          // per-function lock spans
	accesses []guardAccess                       // every tracked field access, sorted by position
	facts    map[*types.Var]*guardFact           // field -> guard fact
	entry    map[*types.Func]map[*types.Var]bool // locks held on every static entry (missing = never called)
	goEntry  map[*types.Func]map[*types.Var]bool // locks held on every goroutine-reachable entry (missing = unreachable)
	goFrom   map[*types.Func]token.Pos           // witness go statement per goroutine-reachable function
	annErrs  []Diagnostic                        // malformed //h2vet:guardedby annotations
}

type callEdge struct {
	caller *types.Func
	pos    token.Pos
}

// analyzeGuards runs the full guard inference over the program.
func analyzeGuards(prog *Program) *guardAnalysis {
	g := prog.callGraph()
	ga := &guardAnalysis{
		prog:  prog,
		g:     g,
		owner: map[*types.Var]*guardedStruct{},
		locks: map[*types.Func]*funcLocks{},
		facts: map[*types.Var]*guardFact{},
	}

	// Structs with named mutex fields; every other field of them is a
	// candidate guardee.
	for _, named := range g.named {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		gs := &guardedStruct{named: named}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); isSyncMutex(f.Type()) {
				gs.mutexes = append(gs.mutexes, f)
			}
		}
		if len(gs.mutexes) == 0 {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			ga.owner[st.Field(i)] = gs // mutexes included, so fieldName can render them
		}
	}

	fns := make([]*types.Func, 0, len(g.funcs))
	for fn := range g.funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return objKey(fns[i]) < objKey(fns[j]) })

	for _, fn := range fns {
		ga.locks[fn] = collectFuncLocks(g.funcs[fn])
	}

	// Every access to a tracked field, in deterministic order.
	for _, fn := range fns {
		fi := g.funcs[fn]
		info := fi.unit.info
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			fv, ok := s.Obj().(*types.Var)
			if !ok || ga.owner[fv] == nil || isSyncMutex(fv.Type()) {
				return true
			}
			ga.accesses = append(ga.accesses, guardAccess{field: fv, pos: sel.Sel.Pos(), fn: fn})
			return true
		})
	}
	sort.Slice(ga.accesses, func(i, j int) bool { return ga.accesses[i].pos < ga.accesses[j].pos })

	inEdges := map[*types.Func][]callEdge{}
	for _, fn := range fns {
		for _, site := range g.funcs[fn].sites {
			for _, callee := range site.callees {
				if g.funcs[callee] != nil {
					inEdges[callee] = append(inEdges[callee], callEdge{caller: fn, pos: site.call.Pos()})
				}
			}
		}
	}

	ga.entry = ga.entryLocksets(fns, inEdges)
	ga.goEntry, ga.goFrom = ga.goroutineLocksets(fns, inEdges)
	ga.inferGuards()
	ga.applyAnnotations()
	return ga
}

// entryLocksets computes, for every function, the intersection over all
// static call sites of the locks held when it is entered. Functions with
// no static callers enter with nothing held. The meet-over-edges
// fixpoint only shrinks sets, so it terminates; call sites inside
// go-launched literals contribute only the locks acquired inside the
// literal (the spawner's locks are not held on the new goroutine).
func (ga *guardAnalysis) entryLocksets(fns []*types.Func, inEdges map[*types.Func][]callEdge) map[*types.Func]map[*types.Var]bool {
	entry := map[*types.Func]map[*types.Var]bool{}
	for _, fn := range fns {
		if len(inEdges[fn]) == 0 {
			entry[fn] = map[*types.Var]bool{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			edges := inEdges[fn]
			if len(edges) == 0 {
				continue
			}
			var newSet map[*types.Var]bool // nil: no resolved caller yet
			for _, e := range edges {
				held, fresh := ga.locks[e.caller].heldAt(e.pos)
				if !fresh {
					ce, ok := entry[e.caller]
					if !ok {
						continue
					}
					for cls := range ce {
						held[cls] = true
					}
				}
				if newSet == nil {
					newSet = held
				} else {
					newSet = intersectLocks(newSet, held)
				}
			}
			if newSet == nil {
				continue
			}
			if old, ok := entry[fn]; !ok || !locksEqual(old, newSet) {
				entry[fn] = newSet
				changed = true
			}
		}
	}
	return entry
}

// goroutineLocksets computes the same meet, but only over paths that
// start at a `go` statement: resolved `go f(...)` callees enter with the
// empty lockset, call sites inside go-launched literals seed their
// callees with the locks acquired inside the literal, and everything
// transitively called inherits the caller's goroutine lockset. The
// returned witness map names one spawning `go` statement (the smallest
// position) per reachable function for the diagnostic.
func (ga *guardAnalysis) goroutineLocksets(fns []*types.Func, inEdges map[*types.Func][]callEdge) (map[*types.Func]map[*types.Var]bool, map[*types.Func]token.Pos) {
	type seed struct {
		set     map[*types.Var]bool
		witness token.Pos
	}
	seeds := map[*types.Func][]seed{}
	for _, fn := range fns {
		fi := ga.g.funcs[fn]
		info := fi.unit.info
		fl := ga.locks[fn]
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if _, isLit := g.Call.Fun.(*ast.FuncLit); isLit {
				return true // its call sites seed below, via heldAt freshness
			}
			for _, callee := range ga.g.calleesOf(info, g.Call) {
				if ga.g.funcs[callee] != nil {
					seeds[callee] = append(seeds[callee], seed{set: map[*types.Var]bool{}, witness: g.Pos()})
				}
			}
			return true
		})
		for _, site := range fi.sites {
			lit := fl.litAt(site.call.Pos())
			if lit == nil {
				continue
			}
			held, _ := fl.heldAt(site.call.Pos())
			for _, callee := range site.callees {
				if ga.g.funcs[callee] != nil {
					seeds[callee] = append(seeds[callee], seed{set: held, witness: lit.goPos})
				}
			}
		}
	}

	goEntry := map[*types.Func]map[*types.Var]bool{}
	goFrom := map[*types.Func]token.Pos{}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			var newSet map[*types.Var]bool
			witness := token.NoPos
			meet := func(s map[*types.Var]bool, w token.Pos) {
				if newSet == nil {
					newSet = cloneLocks(s)
				} else {
					newSet = intersectLocks(newSet, s)
				}
				if witness == token.NoPos || (w != token.NoPos && w < witness) {
					witness = w
				}
			}
			for _, sd := range seeds[fn] {
				meet(sd.set, sd.witness)
			}
			for _, e := range inEdges[fn] {
				held, fresh := ga.locks[e.caller].heldAt(e.pos)
				if fresh {
					continue // already a seed above
				}
				ce, ok := goEntry[e.caller]
				if !ok {
					continue
				}
				for cls := range ce {
					held[cls] = true
				}
				meet(held, goFrom[e.caller])
			}
			if newSet == nil {
				continue
			}
			if old, ok := goEntry[fn]; !ok || !locksEqual(old, newSet) || goFrom[fn] != witness {
				goEntry[fn] = newSet
				goFrom[fn] = witness
				changed = true
			}
		}
	}
	return goEntry, goFrom
}

// inferGuards decides, per field, whether the evidence supports a guard:
// the sibling mutex held at the most access sites wins when it covers at
// least 2 sites and at least 75% of them.
func (ga *guardAnalysis) inferGuards() {
	bySite := map[*types.Var][]guardAccess{}
	for _, acc := range ga.accesses {
		bySite[acc.field] = append(bySite[acc.field], acc)
	}
	fields := make([]*types.Var, 0, len(bySite))
	for f := range bySite {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return ga.fieldName(fields[i]) < ga.fieldName(fields[j]) })
	for _, field := range fields {
		gs := ga.owner[field]
		sites := bySite[field]
		fact := &guardFact{owner: gs, field: field, total: len(sites)}
		var best *types.Var
		bestCount := 0
		for _, m := range gs.mutexes {
			count := 0
			for _, acc := range sites {
				if ga.siteLocks(acc)[m] {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = m, count
			}
		}
		if best != nil && bestCount >= 2 && bestCount*4 >= len(sites)*3 {
			fact.guard, fact.guarded = best, bestCount
		}
		ga.facts[field] = fact
	}
}

// siteLocks is the effective lockset at one access: the local spans
// union the function's entry lockset, or only the literal-local spans
// inside a go-launched literal.
func (ga *guardAnalysis) siteLocks(acc guardAccess) map[*types.Var]bool {
	held, fresh := ga.locks[acc.fn].heldAt(acc.pos)
	if fresh {
		return held
	}
	for cls := range ga.entry[acc.fn] {
		held[cls] = true
	}
	return held
}

// applyAnnotations seeds the guard map from //h2vet:guardedby directives
// on field declarations, overriding inference, and records malformed
// annotations as diagnostics.
func (ga *guardAnalysis) applyAnnotations() {
	dirs := collectLineDirectives(ga.prog.source, "guardedby")
	for _, u := range ga.prog.source {
		for _, file := range u.files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fieldDecl := range st.Fields.List {
					for _, name := range fieldDecl.Names {
						pos := u.fset.Position(name.Pos())
						mutexName, ok := directiveFor(dirs, pos.Filename, pos.Line)
						if !ok {
							continue
						}
						fv, _ := u.info.Defs[name].(*types.Var)
						if fv == nil {
							continue
						}
						gs := ga.owner[fv]
						var guard *types.Var
						if gs != nil {
							for _, m := range gs.mutexes {
								if m.Name() == mutexName {
									guard = m
									break
								}
							}
						}
						if guard == nil {
							ga.annErrs = append(ga.annErrs, Diagnostic{
								Pos:  pos,
								Rule: "guardcheck",
								Msg: fmt.Sprintf("//h2vet:guardedby %s: the declaring struct has no sync.Mutex/RWMutex field named %q",
									mutexName, mutexName),
							})
							continue
						}
						fact := ga.facts[fv]
						if fact == nil {
							fact = &guardFact{owner: gs, field: fv}
							ga.facts[fv] = fact
						}
						guarded := 0
						for _, acc := range ga.accesses {
							if acc.field == fv && ga.siteLocks(acc)[guard] {
								guarded++
							}
						}
						fact.guard, fact.annotated, fact.guarded = guard, true, guarded
					}
				}
				return true
			})
		}
	}
}

// fieldName renders pkg.Type.field for a tracked field.
func (ga *guardAnalysis) fieldName(f *types.Var) string {
	gs := ga.owner[f]
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Name()
	}
	if gs == nil {
		return pkg + "." + f.Name()
	}
	return fmt.Sprintf("%s.%s.%s", pkg, gs.named.Obj().Name(), f.Name())
}

func runGuardcheck(p *ProgramPass) {
	ga := analyzeGuards(p.Prog)
	for _, d := range ga.annErrs {
		p.ReportfAt(d.Pos, "%s", d.Msg)
	}
	for _, acc := range ga.accesses {
		fact := ga.facts[acc.field]
		if fact == nil || fact.guard == nil {
			continue
		}
		fl := ga.locks[acc.fn]
		held, fresh := fl.heldAt(acc.pos)
		var witness token.Pos
		if fresh {
			witness = fl.litAt(acc.pos).goPos
		} else {
			ge, ok := ga.goEntry[acc.fn]
			if !ok {
				continue // not reachable from any go statement
			}
			for cls := range ge {
				held[cls] = true
			}
			witness = ga.goFrom[acc.fn]
		}
		if held[fact.guard] {
			continue
		}
		origin := fmt.Sprintf("inferred: held at %d of %d sites", fact.guarded, fact.total)
		if fact.annotated {
			origin = "//h2vet:guardedby annotation"
		}
		wp := p.Prog.fset.Position(witness)
		p.Reportf(acc.pos, "field %s accessed without its guard %s (%s) on a path reachable from the goroutine launched at %s:%d",
			ga.fieldName(acc.field), ga.fieldName(fact.guard), origin, wp.Filename, wp.Line)
	}
}

// intersectLocks returns a \cap b (a is consumed).
func intersectLocks(a, b map[*types.Var]bool) map[*types.Var]bool {
	for cls := range a {
		if !b[cls] {
			delete(a, cls)
		}
	}
	return a
}

// cloneLocks copies a lockset.
func cloneLocks(s map[*types.Var]bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool, len(s))
	for cls := range s {
		out[cls] = true
	}
	return out
}

func locksEqual(a, b map[*types.Var]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for cls := range a {
		if !b[cls] {
			return false
		}
	}
	return true
}
