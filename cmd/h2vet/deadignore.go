package main

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
run, then reports the remainder (see reporter.finish). When -rules
restricts the analyzer set, directives for rules that did not run are
given the benefit of the doubt; only unknown rule names are still
reported. A deadignore finding is itself suppressible with an explicit
"//h2vet:ignore deadignore <reason>" directive (a blanket "all" does
not apply — it would excuse its own staleness).`,
}

// finish runs after every analyzer has finished. When deadignore is
// selected it reports the //h2vet:ignore directives that suppressed
// nothing; then it returns every finding, sorted.
func (r *reporter) finish(analyzers []*Analyzer, subset bool) []Diagnostic {
	known := map[string]bool{"all": true}
	for _, a := range allAnalyzers() {
		known[a.Name] = true
	}
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	keeps := func(d *directive) bool { return d.rule == deadignoreAnalyzer.Name }
	for file, lines := range r.dirs {
		if !selected[deadignoreAnalyzer.Name] || !r.analyzed[file] {
			continue
		}
		for _, d := range lines {
			// Meta-suppressions are judged by what they annotate; an
			// explicit deadignore suppression on the line above keeps a
			// directive, a blanket "all" does not.
			if keeps(d) || r.dirs.find(d.pos, keeps) != nil {
				continue
			}
			msg := "//h2vet:ignore " + d.rule + " suppresses nothing: no " + d.rule + " finding on this line or the next; delete the stale directive"
			switch {
			case !known[d.rule]:
				msg = "//h2vet:ignore " + d.rule + " suppresses nothing: unknown rule (see h2vet -list)"
			case r.used[d], subset && (d.rule == "all" || !selected[d.rule]):
				continue // live, or its rule did not run and cannot be judged
			case d.rule == "all":
				msg = "//h2vet:ignore all suppresses nothing: no finding on this line or the next; delete the stale directive"
			}
			r.diags = append(r.diags, Diagnostic{Pos: d.pos, Rule: deadignoreAnalyzer.Name, Msg: msg})
		}
	}
	sortDiagnostics(r.diags)
	return r.diags
}
