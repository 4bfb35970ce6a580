package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

var lockorderAnalyzer = &Analyzer{
	Name:       "lockorder",
	Doc:        "static lock-acquisition graph must be acyclic with no same-mutex re-entry",
	RunProgram: runLockorder,
	Long: `lockorder builds the program's static lock-acquisition graph
and rejects shapes that can deadlock:

  - an edge A -> B means some code path acquires mutex class B while
    holding mutex class A, either directly or through any chain of
    calls (propagated through the call graph). "While holding" is
    the lock span lockcheck reads too: from the
    acquisition to a direct unlock in the same block, or to the end of
    the function when the unlock is deferred, absent or in a nested
    early-exit branch. A successful TryLock holds the mutex like a
    Lock does: it is an acquisition under whatever is held at the
    call (the descriptor cache's evictor takes descriptor monitors
    this way, under the cache lock);
  - a cycle A -> ... -> A means two executions can acquire the classes
    in opposite orders — the classic deadlock;
  - a self-edge A -> A means the same mutex class may be re-acquired
    while already held — sync.Mutex self-deadlocks, and recursive
    RLock deadlocks against a waiting writer.

A mutex class is the declared variable behind the lock expression: a
struct field (all instances of gossip.Bus.mu are one class), a package
var, or a local. Class-level analysis conflates instances, so an
intended hierarchy over two instances of one type needs an inline
//h2vet:ignore lockorder <reason>. Otherwise fix a cycle by imposing
one global acquisition order.`,
}

// heldCall is a function call made while a mutex class is held.
type heldCall struct {
	held    *types.Var
	callees []*types.Func
	pos     token.Pos
}

// lockFacts is what one declared function contributes to the graph.
type lockFacts struct {
	acquires map[*types.Var]token.Pos // classes this function locks directly
	edges    []lockEdge               // direct nested acquisitions
	calls    []heldCall               // calls under a held lock
}

type lockEdge struct {
	held, acquired *types.Var
	pos            token.Pos
}

func runLockorder(p *ProgramPass) {
	g := p.Prog.callGraph()

	// Deterministic function order: facts and first-seen class names must
	// not depend on map iteration.
	fns := make([]*types.Func, 0, len(g.funcs))
	for fn := range g.funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return objKey(fns[i]) < objKey(fns[j]) })

	classes := map[*types.Var]string{} // display names, e.g. "gossip.Bus.mu"
	facts := map[*types.Func]*lockFacts{}
	for _, fn := range fns {
		facts[fn] = collectLockFacts(g, g.funcs[fn], classes)
	}

	// Transitive acquisition sets to a fixed point (the call graph may be
	// cyclic, so a single DFS pass can under-approximate).
	acqStar := map[*types.Func]map[*types.Var]token.Pos{}
	for _, fn := range fns {
		set := map[*types.Var]token.Pos{}
		for cls, pos := range facts[fn].acquires {
			set[cls] = pos
		}
		acqStar[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			set := acqStar[fn]
			for _, callee := range g.funcs[fn].callees {
				for cls, pos := range acqStar[callee] {
					if _, ok := set[cls]; !ok {
						set[cls] = pos
						changed = true
					}
				}
			}
		}
	}

	// Materialize edges: direct nested locks plus call-propagated ones.
	type edgeKey struct{ held, acquired *types.Var }
	witness := map[edgeKey]token.Pos{}
	addEdge := func(held, acquired *types.Var, pos token.Pos) {
		k := edgeKey{held, acquired}
		if old, ok := witness[k]; !ok || pos < old {
			witness[k] = pos
		}
	}
	for _, fn := range fns {
		for _, e := range facts[fn].edges {
			addEdge(e.held, e.acquired, e.pos)
		}
		for _, hc := range facts[fn].calls {
			for _, callee := range hc.callees {
				for cls := range acqStar[callee] {
					addEdge(hc.held, cls, hc.pos)
				}
			}
		}
	}

	name := func(cls *types.Var) string {
		if n, ok := classes[cls]; ok {
			return n
		}
		return shortName(cls)
	}

	// Self-edges: same-mutex re-entry.
	var keys []edgeKey
	for k := range witness {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].held != keys[j].held {
			return name(keys[i].held) < name(keys[j].held)
		}
		return name(keys[i].acquired) < name(keys[j].acquired)
	})
	for _, k := range keys {
		if k.held == k.acquired {
			p.Reportf(witness[k], "mutex %s may be re-acquired while already held (same-mutex re-entry deadlocks)", name(k.held))
		}
	}

	// Cycles over distinct classes: Tarjan SCC on the edge graph.
	adj := map[*types.Var][]*types.Var{}
	for _, k := range keys {
		if k.held != k.acquired {
			adj[k.held] = append(adj[k.held], k.acquired)
		}
	}
	for _, scc := range stronglyConnected(adj, func(a, b *types.Var) bool { return name(a) < name(b) }) {
		if len(scc) < 2 {
			continue
		}
		// Report at the witness of the edge leaving the lexically smallest
		// class, naming the whole cycle.
		sort.Slice(scc, func(i, j int) bool { return name(scc[i]) < name(scc[j]) })
		inSCC := map[*types.Var]bool{}
		for _, cls := range scc {
			inSCC[cls] = true
		}
		first := scc[0]
		pos := token.NoPos
		for _, k := range keys {
			if k.held == first && inSCC[k.acquired] {
				pos = witness[k]
				break
			}
		}
		names := make([]string, len(scc))
		for i, cls := range scc {
			names[i] = name(cls)
		}
		p.Reportf(pos, "lock-order cycle between %s; acquire these mutexes in one consistent order", joinCycle(names))
	}
}

// collectLockFacts analyzes one declared function: every lock span (see
// lockSpan) contributes the mutex it locks and the calls made while it is
// open. Function literals are separate defer scopes for span matching,
// but their facts are attributed to the enclosing declared function — a
// closure's acquisitions happen during the enclosing call in the common
// inline case, which is the conservative direction.
func collectLockFacts(g *callGraph, fi *funcInfo, classes map[*types.Var]string) *lockFacts {
	facts := &lockFacts{acquires: map[*types.Var]token.Pos{}}
	info := fi.unit.info
	for _, scope := range lockScopes(fi.decl) {
		spans := scopeLockSpans(info, scope)
		for _, sp := range spans {
			if _, seen := classes[sp.cls]; !seen {
				classes[sp.cls] = lockClassName(info, sp.call, sp.cls)
			}
			facts.recordAcquire(sp.cls, sp.start)
		}
		inspectShallow(scope, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, sp := range spans {
				if call.Pos() <= sp.start || call.Pos() >= sp.end {
					continue
				}
				if cls, method, ok := mutexClass(info, call); ok {
					if method != "Unlock" && method != "RUnlock" {
						facts.edges = append(facts.edges, lockEdge{held: sp.cls, acquired: cls, pos: call.Pos()})
					}
					continue
				}
				if callees := g.calleesOf(info, call); len(callees) > 0 {
					facts.calls = append(facts.calls, heldCall{held: sp.cls, callees: callees, pos: call.Pos()})
				}
			}
			return true
		})
	}
	return facts
}

func (f *lockFacts) recordAcquire(cls *types.Var, pos token.Pos) {
	if old, ok := f.acquires[cls]; !ok || pos < old {
		f.acquires[cls] = pos
	}
}

// lockClassName renders a stable display name for a mutex class:
// pkg.Type.field for fields, pkg.var otherwise.
func lockClassName(info *types.Info, call *ast.CallExpr, cls *types.Var) string {
	pkg := ""
	if cls.Pkg() != nil {
		pkg = cls.Pkg().Name()
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if sel != nil {
		if x, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if s := info.Selections[x]; s != nil {
				if tn := recvTypeName(s.Recv()); tn != "" {
					return fmt.Sprintf("%s.%s.%s", pkg, tn, cls.Name())
				}
			}
		}
	}
	return pkg + "." + cls.Name()
}

// stronglyConnected returns the strongly connected components of the
// class graph (Tarjan), with deterministic ordering via less.
func stronglyConnected(adj map[*types.Var][]*types.Var, less func(a, b *types.Var) bool) [][]*types.Var {
	nodes := make([]*types.Var, 0, len(adj))
	seenNode := map[*types.Var]bool{}
	addNode := func(v *types.Var) {
		if !seenNode[v] {
			seenNode[v] = true
			nodes = append(nodes, v)
		}
	}
	for v, outs := range adj {
		addNode(v)
		for _, w := range outs {
			addNode(w)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return less(nodes[i], nodes[j]) })

	index := map[*types.Var]int{}
	low := map[*types.Var]int{}
	onStack := map[*types.Var]bool{}
	var stack []*types.Var
	var sccs [][]*types.Var
	next := 0
	var strong func(v *types.Var)
	strong = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		outs := append([]*types.Var{}, adj[v]...)
		sort.Slice(outs, func(i, j int) bool { return less(outs[i], outs[j]) })
		for _, w := range outs {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}
	return sccs
}

// joinCycle renders "a -> b -> a" for a sorted class-name cycle.
func joinCycle(names []string) string {
	out := ""
	for _, n := range names {
		out += n + " -> "
	}
	return out + names[0]
}
