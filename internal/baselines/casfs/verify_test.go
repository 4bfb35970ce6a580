package casfs

import (
	"context"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/objstore"
)

func TestVerifyCleanTree(t *testing.T) {
	fs, _ := newFS(t)
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/a"))
	mustNoErr(t, fs.Mkdir(ctx, "/a/b"))
	mustNoErr(t, fs.WriteFile(ctx, "/a/b/f1", []byte("one")))
	mustNoErr(t, fs.WriteFile(ctx, "/a/f2", []byte("two")))
	rep, err := fs.Verify(ctx)
	mustNoErr(t, err)
	if !rep.OK() {
		t.Fatalf("clean tree failed verification: %+v", rep)
	}
	if rep.Files != 2 || rep.Dirs != 3 { // root, /a, /a/b
		t.Fatalf("report = %+v, want 2 files, 3 dirs", rep)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	fs, c := newFS(t)
	ctx := context.Background()
	content := []byte("precious")
	mustNoErr(t, fs.WriteFile(ctx, "/f", content))
	// Corrupt the content block in place on every replica.
	key := fs.blockKey(objstore.ETag(content))
	for _, id := range c.Ring().Devices(key) {
		mustNoErr(t, c.Node(id).PutSealed(objstore.Seal(key, []byte("tampered"), nil, time.Now())))
	}
	rep, err := fs.Verify(ctx)
	mustNoErr(t, err)
	if rep.OK() || len(rep.Corrupted) != 1 || rep.Corrupted[0] != "/f" {
		t.Fatalf("corruption not detected: %+v", rep)
	}
}

func TestVerifyDetectsMissingBlock(t *testing.T) {
	fs, c := newFS(t)
	ctx := context.Background()
	content := []byte("going missing")
	mustNoErr(t, fs.WriteFile(ctx, "/gone", content))
	mustNoErr(t, c.Delete(ctx, fs.blockKey(objstore.ETag(content))))
	rep, err := fs.Verify(ctx)
	mustNoErr(t, err)
	if rep.OK() || len(rep.Missing) != 1 || rep.Missing[0] != "/gone" {
		t.Fatalf("missing block not detected: %+v", rep)
	}
}
