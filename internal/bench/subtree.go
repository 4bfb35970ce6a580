package bench

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/h2fs"
)

// SubtreePipeline measures what the batched multi-object API and the
// pipelined subtree walker buy on deep-tree maintenance: COPY of a whole
// subtree, background REPAIR after a node outage, and namespace GC
// (account deletion). The sequential system issues every store call one
// at a time (Fanout=1, SubtreeFanout=1); the pipelined system overlaps
// both the per-object fanout window and the subtree walk
// (Fanout/SubtreeFanout=16). Both leave byte-identical cloud state —
// only the simulated makespan differs.
func SubtreePipeline(quick bool) (Result, error) {
	treeFanout := 16
	if quick {
		treeFanout = 8
	}
	res := Result{
		Experiment: "subtree",
		Title:      fmt.Sprintf("deep-tree maintenance, depth-3 x fanout-%d (sequential vs pipelined)", treeFanout),
		Unit:       "ms",
		Header:     []string{"operation", "sequential (ms)", "pipelined (ms)", "speedup"},
		Notes: []string{
			"sequential: Fanout=1, SubtreeFanout=1 (every store call charged back to back)",
			"pipelined: Fanout=16, SubtreeFanout=16 (batch window + bounded-fanout subtree walk)",
			fmt.Sprintf("tree: %d dirs, %d files; both modes leave identical cloud state", treeFanout*treeFanout+treeFanout+1, treeFanout*treeFanout*treeFanout),
		},
	}
	seq, err := subtreeRun(false, treeFanout)
	if err != nil {
		return res, fmt.Errorf("subtree sequential: %w", err)
	}
	pipe, err := subtreeRun(true, treeFanout)
	if err != nil {
		return res, fmt.Errorf("subtree pipelined: %w", err)
	}
	for i, op := range []string{"copy", "repair", "gc"} {
		res.Rows = append(res.Rows, []string{
			op,
			fmt.Sprintf("%.1f", seq[i]),
			fmt.Sprintf("%.1f", pipe[i]),
			fmt.Sprintf("%.1fx", seq[i]/pipe[i]),
		})
	}
	return res, checkSubtree(res)
}

// checkSubtree holds the comparison to its claim: pipelined issue keeps
// deep-tree COPY, REPAIR and GC each at least 2x cheaper than sequential.
func checkSubtree(res Result) error {
	c := claims{res: res}
	var ops []string
	for _, row := range res.Rows {
		op := c.str(row, "operation")
		ops = append(ops, op)
		seq, pipe := c.num(row, "sequential (ms)"), c.num(row, "pipelined (ms)")
		c.check(seq >= 2*pipe, "%s: pipelined %.1f ms is not 2x below sequential %.1f ms", op, pipe, seq)
	}
	c.check(slices.Equal(ops, []string{"copy", "repair", "gc"}), "operations %v, want [copy repair gc]", ops)
	return c.err()
}

// subtreeRun builds a fresh depth-3 tree and returns the measured
// [copy, repair, gc] times in milliseconds.
func subtreeRun(pipelined bool, treeFanout int) ([3]float64, error) {
	var out [3]float64
	// Pinned clock: namespace UUIDs embed timestamps, which decide object
	// names and thus ring placement — a wall clock here would make the
	// repair row drift between runs.
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	profile, workers := cluster.SwiftProfile(), 16
	if !pipelined {
		profile.Fanout, workers = 1, 1
	}
	c, err := cluster.New(cluster.Config{Profile: profile, Clock: clock})
	if err != nil {
		return out, err
	}
	mw, err := h2fs.New(h2fs.Config{Store: c, Node: 1, Profile: profile, SubtreeFanout: workers, Clock: clock, EagerGC: true})
	if err != nil {
		return out, err
	}
	ctx := bg()
	if err := mw.CreateAccount(ctx, "bench"); err != nil {
		return out, err
	}

	// Depth-3 tree: /tree/d<i>/d<j>/f<k>, treeFanout wide at every level.
	var files []string
	if err := mw.Mkdir(ctx, "bench", "/tree"); err != nil {
		return out, err
	}
	for i := 0; i < treeFanout; i++ {
		l1 := fmt.Sprintf("/tree/d%02d", i)
		if err := mw.Mkdir(ctx, "bench", l1); err != nil {
			return out, err
		}
		for j := 0; j < treeFanout; j++ {
			l2 := fmt.Sprintf("%s/d%02d", l1, j)
			if err := mw.Mkdir(ctx, "bench", l2); err != nil {
				return out, err
			}
			for k := 0; k < treeFanout; k++ {
				p := fmt.Sprintf("%s/f%02d", l2, k)
				if err := mw.WriteFile(ctx, "bench", p, []byte("0123456789abcdef")); err != nil {
					return out, err
				}
				files = append(files, p)
			}
		}
	}

	copyTime, err := Measure(func(ctx context.Context) error {
		return mw.Copy(ctx, "bench", "/tree", "/treecopy")
	})
	if err != nil {
		return out, err
	}

	// Knock a node out, dirty a slice of the tree so its replicas go
	// stale, bring the node back, and measure the repair sweep.
	c.SetNodeDown(0, true)
	for i := 0; i < len(files); i += 16 {
		if err := mw.WriteFile(ctx, "bench", files[i], []byte("fresh-bytes-after-outage")); err != nil {
			return out, err
		}
	}
	c.SetNodeDown(0, false)
	repairTime, err := Measure(func(ctx context.Context) error {
		c.Repair(ctx, workers)
		return nil
	})
	if err != nil {
		return out, err
	}

	gcTime, err := Measure(func(ctx context.Context) error {
		return mw.DeleteAccount(ctx, "bench")
	})
	if err != nil {
		return out, err
	}
	out[0], out[1], out[2] = ms(copyTime), ms(repairTime), ms(gcTime)
	return out, nil
}
