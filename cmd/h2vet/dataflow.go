package main

// Hand-rolled dataflow layer backing poolcheck. The repo is stdlib-only,
// so instead of lowering to golang.org/x/tools/go/ssa this file provides
// the two pieces that rule actually needs, built directly over go/ast +
// go/types:
//
//   - a per-function control-flow graph of basic blocks (funcCFG), precise
//     enough for "on every non-error path" questions: if/for/range/switch/
//     type-switch/select, labeled break/continue, returns, and terminating
//     calls (panic, os.Exit, log.Fatal*, testing's t.Fatal*) all shape the
//     graph; goto conservatively terminates its path;
//   - a def-use alias pass (aliasSet) that tracks which local variables
//     may refer to the same backing object as a root value, through the
//     alias-creating operations this codebase uses: copies, dereferences,
//     address-taking, indexing, slicing, type assertions, and append-like
//     calls (a call is append-like when the result type is identical to an
//     aliased argument's type — append, Ring.DevicesAppend, and friends).
//     Field selection and byte-copying calls do not propagate, so
//     `buf = strconv.AppendQuote(buf, t.Name)` does not taint buf.
//
// Both are per-declared-function (function literals are part of their
// enclosing declaration's graph only where noted); that matches the
// pool discipline being a function-scoped contract.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cfgBlock is one basic block: statements that execute in sequence, the
// blocks control may flow to next, and how the block terminates.
type cfgBlock struct {
	nodes []ast.Stmt
	succs []*cfgBlock
	ret   *ast.ReturnStmt // set when the block ends in a return
	dies  bool            // ends in panic/os.Exit/log.Fatal/t.Fatal — not a normal exit
}

// funcCFG is the control-flow graph of one function body plus the defer
// list (deferred calls run on every exit path, so rules treat them as
// path-independent).
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock // virtual; returns and fall-off-the-end link here
	blocks []*cfgBlock
	defers []*ast.CallExpr
}

type cfgBuilder struct {
	g    *funcCFG
	info *types.Info
	// break/continue targets, innermost last; label "" is the unlabeled
	// innermost target.
	breaks []cfgTarget
	conts  []cfgTarget
}

type cfgTarget struct {
	label string
	block *cfgBlock
}

// buildCFG builds the control-flow graph for one function body. Nested
// function literals are opaque statements here: they run on their own
// activation (or goroutine), so their bodies get their own graphs.
func buildCFG(info *types.Info, body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{}, info: info}
	b.g.exit = b.newBlock()
	b.g.entry = b.newBlock()
	last := b.stmts(body.List, b.g.entry)
	if last != nil {
		b.link(last, b.g.exit) // fall off the end: implicit return
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
}

// stmts threads a statement list through cur, returning the live block
// after the list (nil when every path terminated).
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			// Dead code after a terminator; give it a detached block so
			// its statements are still recorded for position queries.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

// target resolves a break/continue to its block; "" matches the
// innermost target.
func target(stack []cfgTarget, label string) *cfgBlock {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(s.List, cur)

	case *ast.LabeledStmt:
		return b.labeled(s.Label.Name, s.Stmt, cur)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		cur.ret = s
		b.link(cur, b.g.exit)
		return nil

	case *ast.BranchStmt:
		cur.nodes = append(cur.nodes, s)
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := target(b.breaks, label); t != nil {
				b.link(cur, t)
			}
			return nil
		case token.CONTINUE:
			if t := target(b.conts, label); t != nil {
				b.link(cur, t)
			}
			return nil
		case token.GOTO:
			// Conservative: the jump target is unknown at this layer, so
			// the path neither reaches the exit nor continues here.
			cur.dies = true
			b.link(cur, b.g.exit)
			return nil
		}
		return cur // FALLTHROUGH: handled by the switch construction

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		cur.nodes = append(cur.nodes, &ast.ExprStmt{X: s.Cond})
		after := b.newBlock()
		thenB := b.newBlock()
		b.link(cur, thenB)
		if end := b.stmts(s.Body.List, thenB); end != nil {
			b.link(end, after)
		}
		if s.Else != nil {
			elseB := b.newBlock()
			b.link(cur, elseB)
			if end := b.stmt(s.Else, elseB); end != nil {
				b.link(end, after)
			}
		} else {
			b.link(cur, after)
		}
		return after

	case *ast.ForStmt:
		return b.loop(s, "", cur)

	case *ast.RangeStmt:
		return b.rangeLoop(s, "", cur)

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, &ast.ExprStmt{X: s.Tag})
		}
		return b.cases(s.Body, cur, "")

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		return b.cases(s.Body, cur, "")

	case *ast.SelectStmt:
		return b.selectStmt(s, cur, "")

	case *ast.DeferStmt:
		cur.nodes = append(cur.nodes, s)
		b.g.defers = append(b.g.defers, s.Call)
		return cur

	default:
		cur.nodes = append(cur.nodes, s)
		if stmtDies(b.info, s) {
			cur.dies = true
			b.link(cur, b.g.exit)
			return nil
		}
		return cur
	}
}

// labeled builds a labeled loop/switch/select so labeled break/continue
// resolve to it; other labeled statements just pass through.
func (b *cfgBuilder) labeled(label string, s ast.Stmt, cur *cfgBlock) *cfgBlock {
	switch s := s.(type) {
	case *ast.ForStmt:
		return b.loop(s, label, cur)
	case *ast.RangeStmt:
		return b.rangeLoop(s, label, cur)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// break LABEL targets the after block; reuse the unlabeled paths
		// by pushing the label onto the break stack around them.
		after := b.newBlock()
		b.breaks = append(b.breaks, cfgTarget{label: label, block: after})
		end := b.stmt(s, cur)
		b.breaks = b.breaks[:len(b.breaks)-1]
		if end != nil {
			b.link(end, after)
		}
		return after
	default:
		return b.stmt(s, cur)
	}
}

func (b *cfgBuilder) loop(s *ast.ForStmt, label string, cur *cfgBlock) *cfgBlock {
	if s.Init != nil {
		cur = b.stmt(s.Init, cur)
	}
	head := b.newBlock()
	after := b.newBlock()
	b.link(cur, head)
	if s.Cond != nil {
		head.nodes = append(head.nodes, &ast.ExprStmt{X: s.Cond})
		b.link(head, after) // condition may be false on entry
	}
	body := b.newBlock()
	b.link(head, body)
	b.breaks = append(b.breaks, cfgTarget{label: "", block: after}, cfgTarget{label: label, block: after})
	b.conts = append(b.conts, cfgTarget{label: "", block: head}, cfgTarget{label: label, block: head})
	end := b.stmts(s.Body.List, body)
	b.breaks = b.breaks[:len(b.breaks)-2]
	b.conts = b.conts[:len(b.conts)-2]
	if end != nil {
		if s.Post != nil {
			end = b.stmt(s.Post, end)
		}
		if end != nil {
			b.link(end, head)
		}
	}
	return after
}

func (b *cfgBuilder) rangeLoop(s *ast.RangeStmt, label string, cur *cfgBlock) *cfgBlock {
	head := b.newBlock()
	after := b.newBlock()
	b.link(cur, head)
	head.nodes = append(head.nodes, &ast.ExprStmt{X: s.X})
	b.link(head, after) // ranges may be empty (or the channel closed)
	body := b.newBlock()
	b.link(head, body)
	b.breaks = append(b.breaks, cfgTarget{label: "", block: after}, cfgTarget{label: label, block: after})
	b.conts = append(b.conts, cfgTarget{label: "", block: head}, cfgTarget{label: label, block: head})
	end := b.stmts(s.Body.List, body)
	b.breaks = b.breaks[:len(b.breaks)-2]
	b.conts = b.conts[:len(b.conts)-2]
	if end != nil {
		b.link(end, head)
	}
	return after
}

// cases builds switch/type-switch clause bodies. Fallthrough links one
// clause's end to the next clause's body.
func (b *cfgBuilder) cases(body *ast.BlockStmt, cur *cfgBlock, label string) *cfgBlock {
	after := b.newBlock()
	b.breaks = append(b.breaks, cfgTarget{label: "", block: after})
	if label != "" {
		b.breaks = append(b.breaks, cfgTarget{label: label, block: after})
	}
	clauseBlocks := make([]*cfgBlock, 0, len(body.List))
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		clauseBlocks = append(clauseBlocks, b.newBlock())
	}
	i := 0
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := clauseBlocks[i]
		b.link(cur, blk)
		end := b.stmts(cc.Body, blk)
		if end != nil {
			if ft := fallsThrough(cc.Body); ft && i+1 < len(clauseBlocks) {
				b.link(end, clauseBlocks[i+1])
			} else {
				b.link(end, after)
			}
		}
		i++
	}
	if !hasDefault {
		b.link(cur, after) // no clause may match
	}
	if label != "" {
		b.breaks = b.breaks[:len(b.breaks)-1]
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	return after
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, cur *cfgBlock, label string) *cfgBlock {
	after := b.newBlock()
	b.breaks = append(b.breaks, cfgTarget{label: "", block: after})
	if label != "" {
		b.breaks = append(b.breaks, cfgTarget{label: label, block: after})
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.link(cur, blk)
		if cc.Comm != nil {
			blk.nodes = append(blk.nodes, cc.Comm)
		}
		if end := b.stmts(cc.Body, blk); end != nil {
			b.link(end, after)
		}
	}
	if label != "" {
		b.breaks = b.breaks[:len(b.breaks)-1]
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	return after
}

// stmtDies reports whether a statement unconditionally stops normal
// control flow: panic, os.Exit, log.Fatal*, runtime.Goexit, or a
// testing Fatal/Fatalf/FailNow/Skip* call. Those paths are never
// "forgot the cleanup" paths, so dataflow rules exempt them.
func stmtDies(info *types.Info, s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if _, isFunc := info.Uses[fun]; !isFunc { // the builtin, not a shadow
				return true
			}
		}
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Goexit", "Fatal", "Fatalf", "Fatalln", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

// errorReturn reports whether a return statement leaves on an error
// path: the function's last result is an error and the returned
// expression for it is not the nil literal. Naked returns count as
// success paths (the repo's style names no error results).
func errorReturn(info *types.Info, ret *ast.ReturnStmt) bool {
	if ret == nil || len(ret.Results) == 0 {
		return false
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	tv, ok := info.Types[last]
	if !ok || tv.Type == nil {
		return false
	}
	if !types.Identical(tv.Type, types.Universe.Lookup("error").Type()) {
		named, okN := tv.Type.(*types.Named)
		if !okN || named.Obj().Name() != "error" {
			return false
		}
	}
	if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

// aliasSet tracks the local variables that may alias one root value
// inside one declared function (nested literals included — captures
// alias too).
type aliasSet struct {
	info *types.Info
	vars map[*types.Var]bool
}

// newAliasSet seeds an alias set with the root variable and iterates the
// function's assignments to a fixpoint.
func newAliasSet(info *types.Info, body ast.Node, root *types.Var) *aliasSet {
	as := &aliasSet{info: info, vars: map[*types.Var]bool{root: true}}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Rhs) == 0 {
				return true
			}
			// Pair LHS/RHS positionally; multi-value calls assign all LHS
			// from one RHS, and a call result never aliases under the
			// same-type rule unless checked explicitly below.
			for i, lhs := range assign.Lhs {
				var rhs ast.Expr
				if len(assign.Rhs) == len(assign.Lhs) {
					rhs = assign.Rhs[i]
				} else {
					rhs = assign.Rhs[0]
				}
				if !as.aliases(rhs) {
					continue
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj, _ := as.info.ObjectOf(id).(*types.Var)
				if obj != nil && !as.vars[obj] {
					as.vars[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return as
}

// aliases reports whether evaluating e may yield a value sharing the
// root's backing object. A value whose type holds no pointers is a
// scalar copy (buf[0] of a pooled *[64]int is an int) and cannot alias,
// no matter what it was read from — unless its address is what flows on
// (&buf[0] does point into the pooled object; see aliasesLoc).
func (as *aliasSet) aliases(e ast.Expr) bool {
	if tv, ok := as.info.Types[ast.Unparen(e)]; ok && tv.Type != nil && !holdsPointers(tv.Type, nil) {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj, _ := as.info.ObjectOf(e).(*types.Var)
		return obj != nil && as.vars[obj]
	case *ast.UnaryExpr:
		return e.Op == token.AND && as.aliasesLoc(e.X)
	case *ast.StarExpr:
		return as.aliases(e.X)
	case *ast.IndexExpr:
		return as.aliases(e.X)
	case *ast.SliceExpr:
		return as.aliases(e.X)
	case *ast.TypeAssertExpr:
		return as.aliases(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if as.aliases(elt) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// Append-like: the result aliases an argument when the static
		// result type is identical to that aliased argument's type
		// (append, DevicesAppend, re-slicing helpers). Byte-copying calls
		// (strconv.AppendQuote(buf, t.Name)) have a non-identical aliased
		// argument type and do not propagate.
		resTV, ok := as.info.Types[e]
		if !ok || resTV.Type == nil {
			return false
		}
		for _, arg := range e.Args {
			if !as.aliases(arg) {
				continue
			}
			argTV, ok := as.info.Types[ast.Unparen(arg)]
			if ok && argTV.Type != nil && types.Identical(argTV.Type, resTV.Type) {
				return true
			}
		}
		return false
	}
	return false
}

// aliasesLoc reports whether the storage location e denotes lives inside
// the root's backing object — the address-of case, where the scalar-copy
// exemption of aliases does not apply (&buf[0] points into the pool).
func (as *aliasSet) aliasesLoc(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj, _ := as.info.ObjectOf(e).(*types.Var)
		return obj != nil && as.vars[obj]
	case *ast.IndexExpr:
		return as.aliasesLoc(e.X) || as.aliases(e.X)
	case *ast.SelectorExpr:
		return as.aliasesLoc(e.X) || as.aliases(e.X)
	case *ast.StarExpr:
		return as.aliases(e.X)
	}
	return as.aliases(e)
}
