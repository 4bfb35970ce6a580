package main

import (
	"testing"
)

func TestSelfTimeIsUnionOfChildren(t *testing.T) {
	spans := []span{
		{OpID: 1, SpanID: 1, Start: 0, End: 100},
		{OpID: 1, SpanID: 2, Parent: 1, Start: 10, End: 40},
		{OpID: 1, SpanID: 3, Parent: 1, Start: 30, End: 60}, // overlaps span 2
		{OpID: 1, SpanID: 4, Parent: 1, Start: 80, End: 90},
	}
	tree := buildTree(spans)
	if got := tree.self(0); got != 40 {
		t.Fatalf("self = %d, want 40 (100 minus [10,60) and [80,90))", got)
	}
	if err := tree.check(); err != nil {
		t.Fatal(err)
	}
	spans[3].End = 120
	if err := buildTree(spans).check(); err == nil {
		t.Fatal("a child ending after its parent passed the check")
	}
}

// TestSpanInvariants: on a real traced pass every child lies inside its
// parent, self time is never negative and every op has one root — over
// the facade and across the wire.
func TestSpanInvariants(t *testing.T) {
	for _, name := range []string{"sync_mix", "subtree_ops", "http_mix"} {
		s := specByName(name)
		traces := s.generate(17, 1)
		setup := &setupClock{}
		tl := &tally{}
		res, err := tracedPass(s, traces, setup, tl)
		if err != nil {
			t.Fatal(err)
		}
		if tl.failed != 0 {
			t.Fatalf("%s: %v", name, tl.notes)
		}
		tree := buildTree(res.tr.spans)
		if err := tree.check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		ops := 0
		for _, r := range tree.roots {
			if tree.spans[r].Name != "maintain" {
				ops++
			}
		}
		if int64(ops) != res.ops {
			t.Errorf("%s: %d op roots for %d ops", name, ops, res.ops)
		}
		if s.http {
			sums := sumSpans(res.tr)
			if int64(len(sums.handlers)) != res.ops {
				t.Errorf("%s: %d handler spans for %d ops: the span header did not cross the wire", name, len(sums.handlers), res.ops)
			}
		}
	}
}
