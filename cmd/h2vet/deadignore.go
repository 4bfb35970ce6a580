package main

import (
	"go/token"
	"sort"
	"strconv"
)

var deadignoreAnalyzer = &Analyzer{
	Name: "deadignore",
	Doc:  "every //h2vet:ignore directive suppresses a real diagnostic of a known rule",
	Long: `deadignore reports //h2vet:ignore directives that have no
effect: the rule name is a typo, or no diagnostic of that rule fires
on the directive's line or the line below it. Dead directives are how
a suppression outlives the code it excused — the bug pattern comes
back and the stale ignore swallows it silently.

The rule has no Run/RunProgram of its own: the driver tracks which
directives actually suppressed a diagnostic while the other analyzers
run, then reports the remainder (see deadIgnores). When -rules
restricts the analyzer set, directives for rules that did not run are
given the benefit of the doubt; only unknown rule names are still
reported. A deadignore finding is itself suppressible with an explicit
"//h2vet:ignore deadignore <reason>" directive (a blanket "all" does
not apply — it would excuse its own staleness).`,
}

// ignoreDirective is one parsed //h2vet:ignore occurrence.
type ignoreDirective struct {
	pos  token.Position
	rule string
}

// collectIgnoreDirectives parses every //h2vet:ignore directive in the
// loaded module, deduplicated (the same file can be parsed into both a
// source unit and an analysis unit) and position-sorted.
func collectIgnoreDirectives(prog *Program) []ignoreDirective {
	seen := map[string]bool{}
	var out []ignoreDirective
	for _, units := range [][]*unit{prog.source, prog.units} {
		for _, u := range units {
			for _, f := range u.files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						rule, ok := parseIgnoreDirective(c.Text)
						if !ok {
							continue
						}
						pos := u.fset.Position(c.Pos())
						key := pos.Filename + "\x00" + rule + "\x00" + strconv.Itoa(pos.Line)
						if seen[key] {
							continue
						}
						seen[key] = true
						out = append(out, ignoreDirective{pos: pos, rule: rule})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.rule < b.rule
	})
	return out
}

// deadIgnores runs after every analyzer has finished and reports the
// directives that suppressed nothing. used is the merged usage table the
// passes recorded through markUsed.
func deadIgnores(prog *Program, analyzers []*Analyzer, subset bool, used map[string]map[int]map[string]bool) []Diagnostic {
	known := map[string]bool{"all": true}
	for _, a := range allAnalyzers() {
		known[a.Name] = true
	}
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	ignores := programIgnores(prog)
	analyzed := analyzedFiles(prog)

	var diags []Diagnostic
	for _, dir := range collectIgnoreDirectives(prog) {
		if !analyzed[dir.pos.Filename] {
			continue
		}
		if dir.rule == deadignoreAnalyzer.Name {
			continue // meta-suppressions are judged by what they annotate
		}
		// An explicit deadignore suppression on the directive's line or
		// the line above keeps it; a blanket "all" does not.
		suppressed := false
		for _, line := range []int{dir.pos.Line, dir.pos.Line - 1} {
			if ignores[dir.pos.Filename][line][deadignoreAnalyzer.Name] {
				suppressed = true
			}
		}
		if suppressed {
			continue
		}
		if !known[dir.rule] {
			diags = append(diags, Diagnostic{
				Pos:  dir.pos,
				Rule: deadignoreAnalyzer.Name,
				Msg:  "//h2vet:ignore " + dir.rule + " suppresses nothing: unknown rule (see h2vet -list)",
			})
			continue
		}
		if subset && (dir.rule == "all" || !selected[dir.rule]) {
			continue // the rule did not run; cannot judge the directive
		}
		if !used[dir.pos.Filename][dir.pos.Line][dir.rule] {
			msg := "//h2vet:ignore " + dir.rule + " suppresses nothing: no " + dir.rule + " finding on this line or the next; delete the stale directive"
			if dir.rule == "all" {
				msg = "//h2vet:ignore all suppresses nothing: no finding on this line or the next; delete the stale directive"
			}
			diags = append(diags, Diagnostic{Pos: dir.pos, Rule: deadignoreAnalyzer.Name, Msg: msg})
		}
	}
	return diags
}
