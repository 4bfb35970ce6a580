package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/storemw"
)

// GCQueueReclamation is the durable-reclamation experiment: with EagerGC
// off and the GC queue on, RMDIR of an n-file directory must cost the
// same regardless of n (ring patch + two queue puts), while the actual
// reclamation happens in a background drain whose simulated lag scales
// with n. A targeted fault crashes the first drain partway through the
// walk; the middleware restarts (Recover) and the replayed drain must
// converge — scrubber-verified zero orphans, untouched survivor files —
// at every size. One row per subtree size.
func GCQueueReclamation(quick bool) (Result, error) {
	sizes := []int{64, 256, 1024}
	if quick {
		sizes = []int{8, 32, 128}
	}
	res := Result{
		Experiment: "gcqueue",
		Title:      "durable GC queue: O(1) rmdir, crash-safe background reclamation",
		Unit:       "mixed",
		Header: []string{
			"files", "rmdir (ms)", "enqueue objects", "pending",
			"crashed drain", "replay drain (ms)", "objects freed", "orphans",
		},
		Notes: []string{
			"rmdir cost must be flat across sizes: tombstone patch + entry + index, never the walk",
			"first drain is killed mid-walk by an injected fault; the replay resumes from the durable index",
			"orphans must be 0 after replay (scrubber-verified); survivor files are byte-checked",
			"same seed => byte-identical results (deterministic chaos engine + virtual clock)",
		},
	}
	for _, n := range sizes {
		row, err := gcQueueRun(n)
		if err != nil {
			return res, fmt.Errorf("gcqueue n=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, checkGCQueue(res)
}

// checkGCQueue holds the sweep to its claims: rmdir costs the same at
// every subtree size (O(1), Figure 8), every first drain hits the injected
// crash and every replay converges with no orphan, and the reclamation
// lag grows with the subtree, so the deferred work did not vanish.
func checkGCQueue(res Result) error {
	c := claims{res: res}
	rows := res.Rows
	c.check(len(rows) >= 2, "%d sweep rows, want at least 2", len(rows))
	if len(rows) == 0 {
		return c.err()
	}
	for _, row := range rows {
		files := c.str(row, "files")
		c.check(c.str(row, "rmdir (ms)") == c.str(rows[0], "rmdir (ms)"), "files %s: rmdir cost differs from the smallest subtree's", files)
		c.check(c.str(row, "crashed drain") == "yes", "files %s: the first drain was not crashed", files)
		c.check(c.num(row, "orphans") == 0, "files %s: orphans after replay", files)
	}
	first, last := c.num(rows[0], "replay drain (ms)"), c.num(rows[len(rows)-1], "replay drain (ms)")
	c.check(last > first, "replay drain %.2f ms at the largest subtree is not above %.2f ms at the smallest", last, first)
	return c.err()
}

// gcQueueRun drives one subtree-size cell and returns its table row.
func gcQueueRun(n int) ([]string, error) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	profile := cluster.SwiftProfile()
	c, err := cluster.New(cluster.Config{Profile: profile, Clock: clock})
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	eng := chaos.New(chaos.Plan{Seed: 1337}, reg)
	eng.Bind(c)
	cs := eng.Store(c)
	m, err := h2fs.New(h2fs.Config{
		Store: cs, Node: 1, Profile: profile, Clock: clock,
		GCQueue: true, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	if err := m.CreateAccount(bg(), "bench"); err != nil {
		return nil, err
	}
	fs := m.FS("bench")
	if err := fs.Mkdir(bg(), "/keep"); err != nil {
		return nil, err
	}
	keep := func(i int) ([]byte, string) {
		return []byte(fmt.Sprintf("survivor %d", i)), fmt.Sprintf("/keep/k%d", i)
	}
	for i := 0; i < 3; i++ {
		data, p := keep(i)
		if err := fs.WriteFile(bg(), p, data); err != nil {
			return nil, err
		}
	}
	if err := populateDir(fs, "/victim", n); err != nil {
		return nil, err
	}
	if err := m.FlushAll(bg()); err != nil {
		return nil, err
	}
	base := c.Stats().Objects

	// The O(1) claim: rmdir time on the virtual clock, independent of n.
	rmdirTime, err := Measure(func(ctx context.Context) error {
		return fs.Rmdir(ctx, "/victim")
	})
	if err != nil {
		return nil, err
	}
	enqObjects := c.Stats().Objects - base
	snap, err := m.GCQueueSnapshot(bg())
	if err != nil {
		return nil, err
	}

	// Crash the first drain partway through the file deletes, restart,
	// and measure the replayed drain — the reclamation lag.
	eng.FailOn(storemw.OpDelete, "::f0")
	crashed := "no"
	if _, err := m.DrainGC(bg()); err != nil {
		crashed = "yes"
	}
	eng.FailOn(storemw.OpDelete, "")
	m.Recover()
	drainTime, err := Measure(func(ctx context.Context) error {
		drained, err := m.DrainGC(ctx)
		if err == nil && drained != 1 {
			err = fmt.Errorf("replay drained %d entries, want 1", drained)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := m.FlushAll(bg()); err != nil {
		return nil, err
	}
	freed := base + enqObjects - c.Stats().Objects

	// Convergence: no orphans, survivors intact.
	rep, err := m.Scrub(bg(), c.Names(), false)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		want, p := keep(i)
		data, err := fs.ReadFile(bg(), p)
		if err != nil {
			return nil, fmt.Errorf("survivor %s damaged: %w", p, err)
		}
		if !bytes.Equal(data, want) {
			return nil, fmt.Errorf("survivor %s content = %q, want %q", p, data, want)
		}
	}
	return []string{
		fmt.Sprintf("%d", n),
		fmt.Sprintf("%.2f", ms(rmdirTime)),
		fmt.Sprintf("%d", enqObjects),
		fmt.Sprintf("%d", snap.Pending),
		crashed,
		fmt.Sprintf("%.2f", ms(drainTime)),
		fmt.Sprintf("%d", freed),
		fmt.Sprintf("%d", len(rep.Orphans)),
	}, nil
}
