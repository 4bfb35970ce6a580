package main

import (
	"go/token"
	"strings"
)

// directive is one "//h2vet:<name> <arg>" comment: ignore (arg is the
// rule name; the reason after it is free text and not kept) or durable
// (arg is the reason).
type directive struct {
	pos  token.Position
	name string
	arg  string
}

// directiveTable is every //h2vet: directive of the loaded module, keyed
// by file and line. A line holds at most one: a // comment runs to the end
// of its line. A directive applies to its own line and the line below it
// (the statement or declaration it annotates).
type directiveTable map[string]map[int]*directive

// directives scans the program's comments once and returns the table
// that serves ignore matching, deadignore and //h2vet:durable.
func (p *Program) directives() directiveTable {
	p.dirsOnce.Do(func() {
		p.dirs = directiveTable{}
		for _, units := range [][]*unit{p.source, p.units} {
			for _, u := range units {
				for _, f := range u.files {
					for _, cg := range f.Comments {
						for _, c := range cg.List {
							name, arg, ok := parseDirective(c.Text)
							if !ok {
								continue
							}
							pos := u.fset.Position(c.Pos())
							lines := p.dirs[pos.Filename]
							if lines == nil {
								lines = map[int]*directive{}
								p.dirs[pos.Filename] = lines
							}
							lines[pos.Line] = &directive{pos: pos, name: name, arg: arg}
						}
					}
				}
			}
		}
	})
	return p.dirs
}

// parseDirective parses one comment's text as "//h2vet:<name> <args>". An
// ignore directive's arg is its first field, the suppressed rule; one
// without a rule is no directive.
func parseDirective(text string) (name, arg string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//h2vet:")
	if !ok {
		return "", "", false
	}
	name = rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, arg = rest[:i], strings.TrimSpace(rest[i:])
	}
	if name == "ignore" {
		fields := strings.Fields(arg)
		if len(fields) == 0 {
			return "", "", false
		}
		arg = fields[0]
	}
	return name, arg, true
}

// find returns the directive on pos's line or the line above that match
// accepts, the own line first.
func (t directiveTable) find(pos token.Position, match func(*directive) bool) *directive {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d := t[pos.Filename][line]; d != nil && match(d) {
			return d
		}
	}
	return nil
}

// annotation returns the argument of the name directive annotating pos.
func (t directiveTable) annotation(name string, pos token.Position) (string, bool) {
	d := t.find(pos, func(d *directive) bool { return d.name == name })
	if d == nil {
		return "", false
	}
	return d.arg, true
}

// suppressor returns the //h2vet:ignore directive that suppresses a rule
// finding at pos: one naming the rule, or a blanket "all".
func (t directiveTable) suppressor(rule string, pos token.Position) *directive {
	return t.find(pos, func(d *directive) bool {
		return d.name == "ignore" && (d.arg == rule || d.arg == "all")
	})
}
