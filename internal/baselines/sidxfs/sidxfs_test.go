package sidxfs

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/fsapi/fstest"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

func newFS(t testing.TB, profile cluster.CostProfile) (*FS, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	return New(c, profile, "alice", nil), c
}

func TestConformance(t *testing.T) {
	fstest.Run(t, probedFS)
}

func TestMoveIsO1(t *testing.T) {
	fs, c := newFS(t, cluster.SwiftProfile())
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/dst"))
	cost := func(n int) time.Duration {
		dir := fmt.Sprintf("/d%d", n)
		mustNoErr(t, fs.Mkdir(ctx, dir))
		for i := 0; i < n; i++ {
			mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("%s/f%d", dir, i), []byte("x")))
		}
		tr := vclock.NewTracker()
		mustNoErr(t, fs.Move(vclock.With(ctx, tr), dir, fmt.Sprintf("/dst/d%d", n)))
		return tr.Elapsed()
	}
	small, large := cost(5), cost(500)
	if large > 2*small {
		t.Fatalf("namenode MOVE scaled with n: %v vs %v", small, large)
	}
	_ = c
}

func TestInodeTableTracksTree(t *testing.T) {
	fs, _ := newFS(t, cluster.ZeroProfile())
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/a"))
	mustNoErr(t, fs.WriteFile(ctx, "/a/f", []byte("x")))
	if got := fs.InodeCount(); got != 3 { // root + dir + file
		t.Fatalf("InodeCount = %d, want 3", got)
	}
	mustNoErr(t, fs.Rmdir(ctx, "/a"))
	if got := fs.InodeCount(); got != 1 {
		t.Fatalf("InodeCount after rmdir = %d, want 1", got)
	}
}

func TestRmdirReclaimsContent(t *testing.T) {
	fs, c := newFS(t, cluster.ZeroProfile())
	ctx := context.Background()
	mustNoErr(t, fs.Mkdir(ctx, "/d"))
	for i := 0; i < 5; i++ {
		mustNoErr(t, fs.WriteFile(ctx, fmt.Sprintf("/d/f%d", i), []byte("x")))
	}
	mustNoErr(t, fs.Rmdir(ctx, "/d"))
	if st := c.Stats(); st.Objects != 0 {
		t.Fatalf("%d objects left after rmdir", st.Objects)
	}
}

func TestAccessWalksInodeLevels(t *testing.T) {
	fs, _ := newFS(t, cluster.SwiftProfile())
	ctx := context.Background()
	p := cluster.SwiftProfile()
	path := ""
	for d := 1; d <= 6; d++ {
		path += fmt.Sprintf("/d%d", d)
		mustNoErr(t, fs.Mkdir(ctx, path))
		tr := vclock.NewTracker()
		_, err := fs.Stat(vclock.With(ctx, tr), path)
		mustNoErr(t, err)
		want := p.IndexRead + time.Duration(d)*p.IndexRecord
		if tr.Elapsed() != want {
			t.Fatalf("depth %d Stat charged %v, want %v", d, tr.Elapsed(), want)
		}
	}
}

func mustNoErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestDifferential replays random operation traces against the in-memory
// oracle model (see fstest.RunDifferential).
func TestDifferential(t *testing.T) {
	fstest.RunDifferential(t, probedFS)
}

// probedFS is the conformance factory: a fresh filesystem over a
// zero-cost cluster whose every store call fstest.Probe checks.
func probedFS(t *testing.T) fsapi.FileSystem {
	c, err := cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
	if err != nil {
		t.Fatal(err)
	}
	return New(fstest.Probe(t, c), cluster.ZeroProfile(), "alice", nil)
}
