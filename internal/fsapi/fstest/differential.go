package fstest

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/workload"
)

// RunDifferential replays seeded random operation traces on the
// implementation and on a minimal in-memory model, then requires their
// trees (structure, sizes, contents) to be identical. Conformance (Run)
// checks prescribed behaviours; this catches interactions — a MOVE after
// a COPY after an RMDIR — that enumerated cases miss.
func RunDifferential(t *testing.T, mk Factory) {
	t.Helper()
	for _, seed := range []int64{11, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			impl := mk(t)
			model := newModel()
			ctx := Context()

			base := workload.Generate(workload.Spec{
				Seed: seed, Dirs: 25, Files: 80, MaxDepth: 5,
				DirSkew: 0.7, MeanFileSize: 64, MaxFileSize: 512,
			})
			if err := base.Populate(ctx, impl, 64); err != nil {
				t.Fatal(err)
			}
			if err := base.Populate(ctx, model, 64); err != nil {
				t.Fatal(err)
			}
			ops := workload.GenerateOps(base, 400, seed*3, nil)
			for i, op := range ops {
				if err := workload.Replay(ctx, impl, ops[i:i+1]); err != nil {
					t.Fatalf("impl op %d %s %s: %v", i, op.Kind, op.Path, err)
				}
				if err := workload.Replay(ctx, model, ops[i:i+1]); err != nil {
					t.Fatalf("model op %d %s %s: %v", i, op.Kind, op.Path, err)
				}
			}
			compareTrees(t, ctx, impl, model)
		})
	}
}

func compareTrees(t *testing.T, ctx context.Context, impl, model fsapi.FileSystem) {
	t.Helper()
	implTree, err := fsapi.Tree(ctx, impl, "/")
	if err != nil {
		t.Fatal(err)
	}
	modelTree, err := fsapi.Tree(ctx, model, "/")
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range modelTree {
		got, ok := implTree[path]
		if !ok {
			t.Fatalf("implementation missing %s", path)
		}
		if got.IsDir != want.IsDir {
			t.Fatalf("%s: IsDir %v, model %v", path, got.IsDir, want.IsDir)
		}
		if !got.IsDir && got.Size != want.Size {
			t.Fatalf("%s: size %d, model %d", path, got.Size, want.Size)
		}
	}
	for path := range implTree {
		if _, ok := modelTree[path]; !ok {
			t.Fatalf("implementation has extra entry %s", path)
		}
	}
	// Content spot-check.
	checked := 0
	for path, info := range modelTree {
		if info.IsDir || checked >= 20 {
			continue
		}
		want, err := model.ReadFile(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := impl.ReadFile(ctx, path)
		if err != nil {
			t.Fatalf("impl read %s: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s content differs", path)
		}
		checked++
	}
}
