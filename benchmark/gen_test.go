package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
)

// encodeOps renders a trace canonically.
func encodeOps(ops []Op) string {
	var b strings.Builder
	for i := range ops {
		op := &ops[i]
		fmt.Fprintf(&b, "%s %q %q %d %d", op.Kind, op.Path, op.Dst, op.Want, len(op.Data))
		if len(op.Data) > 0 {
			fmt.Fprintf(&b, " %02x%02x", op.Data[0], op.Data[len(op.Data)-1])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func encodeTraces(ts []*clientTrace) string {
	var out string
	for _, t := range ts {
		out += t.account + "\n" + encodeOps(t.populate) + encodeOps(t.ops)
	}
	return out
}

func TestSameSeedSameTrace(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			a, b, c := encodeTraces(s.generate(7, 1)), encodeTraces(s.generate(7, 1)), encodeTraces(s.generate(8, 1))
			if a != b {
				t.Error("same seed produced different traces")
			}
			if a == c {
				t.Error("different seeds produced the same trace")
			}
		})
	}
}

// TestTraceReplaysOnModel replays every workload's populate ops and trace
// on the repository's oracle filesystem: every op must return what the
// generator recorded, and the oracle must end in the generator's final
// state.
func TestTraceReplaysOnModel(t *testing.T) {
	ctx := context.Background()
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			// Client 0 suffices: both clients run the same generator.
			tr := s.generate(3, 1)[0]
			fs := fstest.NewModel()
			for _, ops := range [][]Op{tr.populate, tr.ops} {
				for i := range ops {
					if !apply(ctx, fs, &ops[i]) {
						t.Fatalf("op %d (%s %s) failed on the model", i, ops[i].Kind, ops[i].Path)
					}
				}
			}
			got, err := fsapi.Tree(ctx, fs, "/")
			if err != nil {
				t.Fatal(err)
			}
			want := tr.final.flatten()
			if len(got) != len(want) {
				t.Fatalf("oracle holds %d entries, generator model %d", len(got), len(want))
			}
			for p, w := range want {
				if g := got[p]; g.IsDir != w.IsDir || g.Size != w.Size {
					t.Fatalf("%s is %+v on the oracle, %+v in the generator model", p, g, w)
				}
			}
		})
	}
}

func TestPrefixSnapshot(t *testing.T) {
	s := specByName("sync_mix")
	tr := s.generate(5, 1)[0]
	m := newModel(5 * 7919)
	m.every = s.maintainEvery
	_, next := s.build(m, 0)
	next(tr.prefix)
	if got := m.snapshot(); got != tr.atPrefix {
		t.Fatalf("snapshot at prefix = %+v, want %+v", tr.atPrefix, got)
	}
	if http := specByName("http_mix").generate(5, 1)[0]; http.prefix != tr.prefix ||
		encodeOps(http.ops) != encodeOps(tr.ops[:len(http.ops)]) {
		t.Fatalf("http_mix is not a prefix of sync_mix with the same counted prefix")
	}
}
