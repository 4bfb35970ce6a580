package main

import (
	"strings"
	"testing"
)

// FuzzIgnoreDirective checks the //h2vet:ignore parser never panics and
// only ever yields a single whitespace-free rule token taken from a
// comment that actually carries the directive prefix; //h2vet:ignore is
// the only directive, so any other //h2vet: comment yields nothing.
func FuzzIgnoreDirective(f *testing.F) {
	f.Add("//h2vet:ignore lockcheck reason text")
	f.Add("//h2vet:ignore costcheck")
	f.Add("//h2vet:ignore")
	f.Add("//h2vet:ignoreall")
	f.Add("// regular comment")
	f.Add("//h2vet:ignore\tall  spaced\treason")
	f.Add("//h2vet:ignore  \t ")
	f.Add("//h2vet:other reason")
	f.Fuzz(func(t *testing.T, text string) {
		rule, ok := parseDirective(text)
		if !ok {
			if rule != "" {
				t.Fatalf("parseDirective(%q) = %q without ok", text, rule)
			}
			return
		}
		if !strings.HasPrefix(text, "//h2vet:ignore") {
			t.Fatalf("parsed a directive out of %q", text)
		}
		if fields := strings.Fields(rule); len(fields) != 1 || fields[0] != rule {
			t.Fatalf("rule %q is empty or contains whitespace (from %q)", rule, text)
		}
		if !strings.Contains(text, rule) {
			t.Fatalf("rule %q is not literally part of %q", rule, text)
		}
	})
}

// FuzzRulesFlag checks the -rules splitter never panics, preserves empty
// segments (so typos like "a,,b" surface as unknown rules instead of
// vanishing), trims every part, and never leaves a comma inside a part.
func FuzzRulesFlag(f *testing.F) {
	f.Add("costcheck,lockorder")
	f.Add(" a ,,b\t")
	f.Add("")
	f.Add(",")
	f.Add("virtualtime")
	f.Fuzz(func(t *testing.T, s string) {
		parts := splitRules(s)
		if want := strings.Count(s, ",") + 1; len(parts) != want {
			t.Fatalf("splitRules(%q) = %d parts, want %d", s, len(parts), want)
		}
		for _, p := range parts {
			if p != strings.TrimSpace(p) {
				t.Fatalf("splitRules(%q): part %q is not trimmed", s, p)
			}
			if strings.Contains(p, ",") {
				t.Fatalf("splitRules(%q): part %q contains a comma", s, p)
			}
		}
	})
}
