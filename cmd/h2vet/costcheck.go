package main

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var costcheckAnalyzer = &Analyzer{
	Name:       "costcheck",
	Doc:        "objstore.Store implementations charge vclock exactly once per operation",
	RunProgram: runCostcheck,
	Long: `costcheck enforces the cost-accounting invariant behind every
figure the simulator emits: simulated service time is whatever
vclock.Charge accumulates, so an objstore.Store primitive that never
charges silently zeroes its cost, and a wrapper that both delegates to
an inner Store and charges on its own double-counts it.

Concretely, for every program type implementing objstore.Store and
every interface primitive (Put, Get, GetRange, Head, Delete, Copy):

  - a leaf implementation (one that does not delegate to another Store
    primitive) must reach vclock.Charge through the call graph;
  - a wrapper (one that delegates) must not also reach a charge call on
    its own frames — the inner implementation owns the cost. Wrappers
    that model extra cost deliberately (retry backoff) annotate the one
    charge site with //h2vet:ignore costcheck <reason>; a storemw.Before
    hook is a function value, so its charge (chaos spikes) is its own.

The same contract covers the optional objstore.Batcher interface: a
native MultiGet/MultiHead/MultiPut/MultiDelete must charge its one
overlapped fanout window itself, while a middleware ring forwarding a
batch (directly or through the objstore.Multi* dispatch helpers) must
not re-charge what the inner store already accounted.

Traversal stops at Store- and Batcher-primitive boundaries, so an
inner implementation's own charges are never attributed to the
wrapper.`,
}

// primIface is one cost-bearing interface the analyzer enforces: the
// mandatory objstore.Store and the optional objstore.Batcher.
type primIface struct {
	kind  string // diagnostic noun: "Store" or "Batcher"
	iface *types.Interface
	names map[string]bool
}

func runCostcheck(p *ProgramPass) {
	g := p.Prog.callGraph()
	var ifaces []primIface
	for _, spec := range []struct{ kind, name string }{
		{"Store", "Store"},
		{"Batcher", "Batcher"},
	} {
		iface := objstoreInterface(p.Prog, spec.name)
		if iface == nil {
			continue // golden tests may define only a subset
		}
		names := map[string]bool{}
		for i := 0; i < iface.NumMethods(); i++ {
			names[iface.Method(i).Name()] = true
		}
		ifaces = append(ifaces, primIface{kind: spec.kind, iface: iface, names: names})
	}
	if len(ifaces) == 0 {
		return // module doesn't define objstore.Store (golden tests without it)
	}
	// A primitive of either interface is a traversal boundary: a batch
	// method falling back to singular Gets delegates exactly like a
	// wrapper forwarding to an inner MultiGet.
	isPrim := func(fn *types.Func) bool {
		for _, pi := range ifaces {
			if isStorePrimitive(fn, pi.iface, pi.names) {
				return true
			}
		}
		return false
	}

	// doubleCharges aggregates wrapper methods per charge site so one
	// finding (and one ignore directive) covers every delegating method
	// that reaches the same charge.
	type chargeSite struct {
		pos     token.Pos
		methods []string
	}
	doubleCharges := map[token.Pos]*chargeSite{}

	for _, named := range g.named {
		ptr := types.NewPointer(named)
		for _, pi := range ifaces {
			if !types.Implements(named, pi.iface) && !types.Implements(ptr, pi.iface) {
				continue
			}
			for i := 0; i < pi.iface.NumMethods(); i++ {
				m := pi.iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				fn, ok := obj.(*types.Func)
				if !ok || fn == nil {
					continue
				}
				fi := g.funcs[fn]
				if fi == nil {
					continue // method body lives outside the program (embedded)
				}
				delegates := false
				var charges []token.Pos
				seenCharge := map[token.Pos]bool{}
				// Do not descend into delegated Store primitives (their charges
				// are theirs) or into the charge functions themselves.
				through := func(callee *types.Func) bool {
					return !isPrim(callee) && !isChargeFunc(callee)
				}
				g.walk(fn, through, func(callee *types.Func, _ *funcInfo, site callSite) {
					if isChargeFunc(callee) && !seenCharge[site.call.Pos()] {
						seenCharge[site.call.Pos()] = true
						charges = append(charges, site.call.Pos())
					}
					if callee != fn && isPrim(callee) {
						delegates = true
					}
				})
				methodName := shortName(named.Obj()) + "." + fn.Name()
				switch {
				case !delegates && len(charges) == 0:
					p.Reportf(fi.decl.Pos(), "%s primitive %s never reaches vclock.Charge; its simulated service time is zero (charge the cost model or delegate to a charging Store)", pi.kind, methodName)
				case delegates:
					for _, pos := range charges {
						cs := doubleCharges[pos]
						if cs == nil {
							cs = &chargeSite{pos: pos}
							doubleCharges[pos] = cs
						}
						cs.methods = append(cs.methods, methodName)
					}
				}
			}
		}
	}

	sites := make([]*chargeSite, 0, len(doubleCharges))
	for _, cs := range doubleCharges {
		sites = append(sites, cs)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	for _, cs := range sites {
		sort.Strings(cs.methods)
		cs.methods = dedupeStrings(cs.methods)
		p.Reportf(cs.pos, "charge reachable from delegating Store wrapper method(s) %s; the wrapped Store already charges, so this double-counts unless intended (//h2vet:ignore costcheck <reason>)", strings.Join(cs.methods, ", "))
	}
}

// objstoreInterface resolves a named interface type (Store, Batcher)
// from the objstore package in the program's universe.
func objstoreInterface(prog *Program, name string) *types.Interface {
	pkg := prog.lookupPackage("internal/objstore")
	if pkg == nil {
		return nil
	}
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// isStorePrimitive reports whether fn is a Store primitive: the interface
// method itself, or a method of that name on a type implementing Store.
func isStorePrimitive(fn *types.Func, iface *types.Interface, primNames map[string]bool) bool {
	if fn == nil || !primNames[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if r, ok := recv.Underlying().(*types.Interface); ok {
		return r == iface || types.Implements(recv, iface)
	}
	return types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)
}

// dedupeStrings removes adjacent duplicates from a sorted slice.
func dedupeStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
