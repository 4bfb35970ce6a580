package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// explain prints what -explain shows for one rule, or for the callgraph
// pseudo-rule: the one-line Doc and the Long text, then the computed table
// for the two names that have one. prog may be nil when loading was
// skipped; the text still prints.
func explain(w io.Writer, name string, prog *Program, pkgFilter string) {
	if a := analyzerByName(name); a != nil {
		fmt.Fprintf(w, "%s — %s\n\n%s\n", a.Name, a.Doc, a.Long)
	} else {
		fmt.Fprintf(w, "%s\n\n%s\n", name, callgraphDoc)
	}
	if prog == nil {
		return
	}
	switch name {
	case "guardcheck":
		explainGuards(w, prog, pkgFilter)
	case "callgraph":
		explainCallgraph(w, prog)
	}
}

// explainCallgraph builds the call graph twice — CHA expansion only, and
// with the RTA refinement the analyzers actually use — and reports the
// edge-count delta plus the per-rule finding delta, so the precision the
// refinement buys stays measured instead of assumed.
func explainCallgraph(w io.Writer, prog *Program) {
	prog.graphOnce.Do(func() {}) // take ownership of the cached graph slot
	cha := buildCallGraphMode(prog, true)
	rta := buildCallGraphMode(prog, false)

	s := rta.stats
	fmt.Fprintf(w, "\ncall graph (RTA over the shared typed universe):\n")
	fmt.Fprintf(w, "  functions            %6d (%d roots: main, init, exported API; %d reachable)\n", s.funcs, s.roots, s.reachable)
	fmt.Fprintf(w, "  named concrete types %6d (%d instantiated in reachable code)\n", s.named, s.instantiated)
	fmt.Fprintf(w, "  interface call sites %6d\n", s.ifaceSites)
	fmt.Fprintf(w, "  edges (CHA)          %6d (%d through interfaces)\n", cha.stats.chaEdges, cha.stats.chaIfaceEdges)
	fmt.Fprintf(w, "  edges (RTA)          %6d (%d through interfaces)\n", s.rtaEdges, s.rtaIfaceEdges)
	if cha.stats.chaEdges > 0 {
		dropped := cha.stats.chaEdges - s.rtaEdges
		fmt.Fprintf(w, "  pruned               %6d spurious edges (%.1f%% of CHA, %.1f%% of interface edges)\n",
			dropped, 100*float64(dropped)/float64(cha.stats.chaEdges),
			100*float64(cha.stats.chaIfaceEdges-s.rtaIfaceEdges)/float64(max(1, cha.stats.chaIfaceEdges)))
	}

	countFindings := func(g *callGraph) map[string]int {
		prog.graph = g
		var halves []*Analyzer
		for _, a := range allAnalyzers() {
			if a.RunProgram != nil {
				halves = append(halves, &Analyzer{Name: a.Name, RunProgram: a.RunProgram})
			}
		}
		diags := runAll(prog, halves, true)
		m := map[string]int{}
		for _, d := range diags {
			m[d.Rule]++
		}
		return m
	}
	chaCounts := countFindings(cha)
	rtaCounts := countFindings(rta)
	prog.graph = rta

	rules := map[string]bool{}
	for r := range chaCounts {
		rules[r] = true
	}
	for r := range rtaCounts {
		rules[r] = true
	}
	names := make([]string, 0, len(rules))
	for r := range rules {
		names = append(names, r)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\nfinding precision (whole-program rules, ignores applied):\n")
	if len(names) == 0 {
		fmt.Fprintf(w, "  no findings under either graph — the RTA pruning introduces none and the repo is clean\n")
		return
	}
	for _, r := range names {
		delta := rtaCounts[r] - chaCounts[r]
		fmt.Fprintf(w, "  %-13s CHA %3d  RTA %3d  (%+d)\n", r, chaCounts[r], rtaCounts[r], delta)
	}
}

func analyzerByName(name string) *Analyzer {
	for _, a := range allAnalyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// matchesPkg filters by package path: empty matches everything,
// otherwise the path must end in or contain the filter.
func matchesPkg(path, filter string) bool {
	if filter == "" {
		return true
	}
	return path == filter || strings.HasSuffix(path, "/"+filter) || strings.Contains(path, filter)
}

// explainGuards prints the inferred/annotated guard table.
func explainGuards(w io.Writer, prog *Program, pkgFilter string) {
	ga := analyzeGuards(prog)
	fields := make([]*guardFact, 0, len(ga.facts))
	for _, fact := range ga.facts {
		if fact.guard == nil {
			continue
		}
		pkg := ""
		if fact.field.Pkg() != nil {
			pkg = fact.field.Pkg().Path()
		}
		if !matchesPkg(pkg, pkgFilter) {
			continue
		}
		fields = append(fields, fact)
	}
	sort.Slice(fields, func(i, j int) bool {
		return ga.fieldName(fields[i].field) < ga.fieldName(fields[j].field)
	})
	fmt.Fprintf(w, "\nguard table (%d guarded fields):\n", len(fields))
	for _, fact := range fields {
		origin := fmt.Sprintf("inferred: held at %d of %d sites", fact.guarded, fact.total)
		if fact.annotated {
			origin = "//h2vet:guardedby annotation"
		}
		fmt.Fprintf(w, "  %-40s guarded by %-20s (%s)\n",
			ga.fieldName(fact.field), fact.guard.Name(), origin)
	}
}
