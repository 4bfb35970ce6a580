package main

import (
	"strings"
	"testing"
)

func TestStaleBaseline(t *testing.T) {
	entries := []jsonFinding{
		{File: "a.go", Rule: "lockcheck", Msg: "still fires"},
		{File: "b.go", Rule: "mapiter", Msg: "fixed long ago"},
		{File: "b.go", Rule: "mapiter", Msg: "fixed long ago"}, // dup collapses
	}
	matched := map[string]bool{entries[0].key(): true}
	stale := staleBaseline(entries, matched)
	if len(stale) != 1 || stale[0].File != "b.go" || stale[0].Rule != "mapiter" {
		t.Fatalf("stale = %+v, want the single unmatched b.go entry", stale)
	}
	if got := staleBaseline(entries, map[string]bool{
		entries[0].key(): true, entries[1].key(): true,
	}); len(got) != 0 {
		t.Fatalf("fully matched baseline reported stale entries: %+v", got)
	}
}

// Every registered rule carries its long-form documentation, and
// -explain renders it even without a loaded program.
func TestExplainCoversAllRules(t *testing.T) {
	for _, a := range allAnalyzers() {
		if strings.TrimSpace(a.Long) == "" {
			t.Errorf("rule %s has no long-form text", a.Name)
			continue
		}
		var sb strings.Builder
		explain(&sb, a.Name, nil, "")
		out := sb.String()
		if !strings.HasPrefix(a.Long, a.Name+" ") || !strings.Contains(out, a.Doc) || !strings.Contains(out, a.Long) {
			t.Errorf("explain(%s) output missing the rule name, doc line or long text:\n%s", a.Name, out)
		}
	}
}

// The rule set is the contract CI's lint job runs, so a rule that compiles
// but is not wired into allAnalyzers would silently stop checking.
func TestV4RulesRegistered(t *testing.T) {
	for _, name := range []string{"poolcheck", "ctxcheck", "atomiccheck"} {
		a := analyzerByName(name)
		if a == nil {
			t.Errorf("rule %s not registered in allAnalyzers", name)
			continue
		}
		if a.Run == nil && a.RunProgram == nil {
			t.Errorf("rule %s has neither a per-unit nor a whole-program half", name)
		}
	}
	// deadignore must stay last so it sees every other rule's directive
	// usage.
	all := allAnalyzers()
	if all[len(all)-1].Name != "deadignore" {
		t.Errorf("deadignore must be the final analyzer, got %s", all[len(all)-1].Name)
	}
}

// The long texts must document their rule's directives and escapes, so
// `h2vet -explain <rule>` is a sufficient fix guide.
func TestV4ExplainTextsMentionDirectives(t *testing.T) {
	cases := map[string][]string{
		"poolcheck":   {"Put", "clear", "escape", "//h2vet:ignore poolcheck"},
		"ctxcheck":    {"context.Background", "WithoutCancel", "//h2vet:durable", "//h2vet:ignore ctxcheck"},
		"atomiccheck": {"sync/atomic", "atomic.Int64", "does not compile"},
	}
	for rule, wants := range cases {
		text := analyzerByName(rule).Long
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("long text of %s missing %q", rule, want)
			}
		}
	}
}
