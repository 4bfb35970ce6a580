package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var mapiterAnalyzer = &Analyzer{
	Name: "mapiter",
	Doc:  "no order-sensitive use of map iteration without an intervening sort",
	Run:  runMapiter,
	Long: `mapiter flags order-sensitive consumption of Go's randomized
map iteration. Two shapes are diagnosed inside for ... range m where
m is a map:

 1. append to a slice declared outside the loop, with no sort of that
    slice later in the same function — the slice's order then depends
    on map hash seeding (nondeterministic figures, gossip fan-out);
 2. a direct order-sensitive sink in the loop body: a call whose name
    starts with Encode/Marshal/Hash/Sum/Write/Broadcast/Send/Fprint,
    or a channel send — no later sort can fix in-loop emission order.

_test.go files are exempt; assertion order rarely feeds figures. Fix by
collecting the keys and sorting them before use.`,
}

var sinkPrefixes = []string{"Encode", "Marshal", "Hash", "Sum", "Write", "Broadcast", "Send", "Fprint"}

func runMapiter(p *Pass) {
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		for _, body := range funcBodies(f) {
			p.mapiterFunc(body)
		}
	}
}

func (p *Pass) mapiterFunc(body *ast.BlockStmt) {
	inspectShallow(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		p.checkMapRange(body, rng)
		return true
	})
}

func (p *Pass) checkMapRange(fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	// Shape 2: order-sensitive sinks directly inside the loop body.
	inspectShallow(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			p.Reportf(n.Pos(), "channel send inside map iteration over %s; delivery order is nondeterministic", rangeSubject(rng))
		case *ast.CallExpr:
			name := calleeName(n)
			for _, prefix := range sinkPrefixes {
				if strings.HasPrefix(name, prefix) {
					p.Reportf(n.Pos(), "call to %s inside map iteration over %s; emission order is nondeterministic, iterate sorted keys", name, rangeSubject(rng))
					break
				}
			}
		}
		return true
	})

	// Shape 1: appends to slices that outlive the loop.
	type appendTarget struct {
		text string
		pos  token.Pos
	}
	var targets []appendTarget
	inspectShallow(rng.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != len(assign.Lhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || calleeName(call) != "append" || len(call.Args) == 0 {
				continue
			}
			lhsText := exprText(assign.Lhs[i])
			if lhsText == "" || lhsText != exprText(call.Args[0]) {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := p.Info.ObjectOf(id); obj != nil && rng.Pos() <= obj.Pos() && obj.Pos() < rng.End() {
					continue // slice scoped to the loop body; order dies with it
				}
			}
			targets = append(targets, appendTarget{text: lhsText, pos: assign.Pos()})
		}
		return true
	})
	for _, tgt := range targets {
		if p.sortedAfter(fnBody, rng, tgt.text) {
			continue
		}
		p.Reportf(tgt.pos, "append to %s in map iteration order over %s with no later sort; sort %s or iterate sorted keys", tgt.text, rangeSubject(rng), tgt.text)
	}
}

// sortedAfter reports whether a sort call mentioning target appears in
// the function after the range loop: a call into package sort or slices,
// or any callee whose name contains "sort".
func (p *Pass) sortedAfter(fnBody *ast.BlockStmt, rng *ast.RangeStmt, target string) bool {
	found := false
	inspectShallow(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(call) {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(a ast.Node) bool {
				if e, ok := a.(ast.Expr); ok && exprText(e) == target {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				found = true
				break
			}
		}
		return true
	})
	return found
}

func isSortCall(call *ast.CallExpr) bool {
	name := calleeName(call)
	if strings.Contains(strings.ToLower(name), "sort") {
		return true
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices") {
			return true
		}
	}
	return false
}

// rangeSubject names what is being ranged over, for diagnostics.
func rangeSubject(rng *ast.RangeStmt) string {
	if s := exprText(rng.X); s != "" {
		return s
	}
	return "map"
}
