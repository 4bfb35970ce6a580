package main

import (
	"go/token"
	"strings"
)

// directive is one "//h2vet:ignore <rule> <reason>" comment: rule is the
// suppressed rule's name; the reason after it is free text and not kept.
type directive struct {
	pos  token.Position
	rule string
}

// directiveTable is every //h2vet:ignore directive of the loaded module, keyed
// by file and line. A line holds at most one: a // comment runs to the end
// of its line. A directive applies to its own line and the line below it
// (the statement or declaration it annotates).
type directiveTable map[string]map[int]*directive

// directives scans the program's comments once and returns the table
// that serves ignore matching and deadignore.
func (p *Program) directives() directiveTable {
	p.dirsOnce.Do(func() {
		p.dirs = directiveTable{}
		for _, units := range [][]*unit{p.source, p.units} {
			for _, u := range units {
				for _, f := range u.files {
					for _, cg := range f.Comments {
						for _, c := range cg.List {
							rule, ok := parseDirective(c.Text)
							if !ok {
								continue
							}
							pos := u.fset.Position(c.Pos())
							lines := p.dirs[pos.Filename]
							if lines == nil {
								lines = map[int]*directive{}
								p.dirs[pos.Filename] = lines
							}
							lines[pos.Line] = &directive{pos: pos, rule: rule}
						}
					}
				}
			}
		}
	})
	return p.dirs
}

// parseDirective parses one comment's text as "//h2vet:ignore <rule>
// <reason>" and returns the rule, its first field; a comment without the
// prefix or without a rule is no directive.
func parseDirective(text string) (rule string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//h2vet:ignore")
	if !ok || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], true
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

// suppressor returns the //h2vet:ignore directive that suppresses a rule
// finding at pos: one naming the rule, or a blanket "all".
func (t directiveTable) suppressor(rule string, pos token.Position) *directive {
	return t.find(pos, func(d *directive) bool {
		return d.rule == rule || d.rule == "all"
	})
}
