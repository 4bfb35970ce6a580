package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
)

// sampledFiles is how many files per account are read back and compared
// byte for byte.
const sampledFiles = 256

// storedKeys unions the object names across the cluster's devices: the
// key universe Scrub cross-checks.
func storedKeys(c *cluster.Cluster) []string {
	seen := make(map[string]bool)
	var names []string
	for _, id := range c.Ring().DeviceIDs() {
		for _, name := range c.Node(id).Names() {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// verify checks the program's output after the last timed round. The
// middleware is restarted first, so everything compared below has to come
// back from the store: an acknowledged patch that was only ever in a
// cache would show as a missing or stale entry.
func verify(e *env, traces []*clientTrace, seed int64, tl *tally) {
	ctx := context.Background()
	e.mw.Recover()
	rng := rand.New(rand.NewSource(seed))
	for _, t := range traces {
		fs := e.mw.FS(t.account)
		want := t.final.flatten()
		got, err := fsapi.Tree(ctx, fs, "/")
		if err != nil {
			tl.fail(fmt.Sprintf("verify %s: walk: %v", t.account, err))
			continue
		}
		tl.attempted += int64(len(want))
		mismatches := 0
		for p, w := range want {
			g, ok := got[p]
			if !ok || g.IsDir != w.IsDir || (!w.IsDir && g.Size != w.Size) {
				mismatches++
			}
		}
		for p := range got {
			if _, ok := want[p]; !ok {
				mismatches++
			}
		}
		if mismatches > 0 {
			tl.failed += int64(mismatches)
			tl.notes = append(tl.notes, fmt.Sprintf("verify %s: %d tree entries differ from the model", t.account, mismatches))
		}
		files := t.final.files
		for i := 0; i < sampledFiles && len(files) > 0; i++ {
			f := files[rng.Intn(len(files))]
			data, err := fs.ReadFile(ctx, t.final.pathOf(f))
			tl.attempted++
			if err != nil || !bytes.Equal(data, f.data) {
				tl.failed++
				tl.notes = append(tl.notes, fmt.Sprintf("verify %s: content of %s differs", t.account, t.final.pathOf(f)))
			}
		}
	}
	rep, err := e.mw.Scrub(ctx, storedKeys(e.cluster), false)
	switch {
	case err != nil:
		tl.fail(fmt.Sprintf("verify: scrub: %v", err))
	case len(rep.Orphans) > 0:
		tl.fail(fmt.Sprintf("verify: scrub found %d orphans, first %s", len(rep.Orphans), rep.Orphans[0]))
	default:
		tl.attempted++
	}
}
