package main

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// simRun replays the counted prefix on a Swift-profile system with a
// stepping clock, with or without the probe in place, and returns the
// total simulated time and the cluster's own counters.
func simRun(t *testing.T, s *spec, traces []*clientTrace, pr probes) (time.Duration, cluster.Stats) {
	t.Helper()
	e, err := newEnv(s, cluster.SwiftProfile(), steppingClock(), pr, traces)
	if err != nil {
		t.Fatal(err)
	}
	defer e.stop()
	if bad := e.populate(s, traces, false); bad != 0 {
		t.Fatalf("%d populate ops failed", bad)
	}
	tracker := vclock.NewTracker()
	ctx := vclock.With(context.Background(), tracker)
	_, failed := soloRun(e, s, traces,
		func(fs fsapi.FileSystem, op *Op) bool { return apply(ctx, fs, op) },
		func() { e.mw.MaintainOnce(ctx) })
	if failed != 0 {
		t.Fatalf("%d ops failed", failed)
	}
	return tracker.Elapsed(), e.cluster.Stats()
}

// TestProbeIsTransparent: with the wrapper in place the simulated time
// and the cluster's counters equal the unwrapped run. It would not hold
// if the wrapper hid objstore.Batcher: batches would fall back to
// singular calls and be charged their sum instead of their makespan.
func TestProbeIsTransparent(t *testing.T) {
	// A small listing workload joins the two named ones: its detailed
	// LISTs are charged MultiHead batches.
	lists := &spec{name: "lists", baseOps: 60, maintainEvery: 16, prefixShare: 1,
		build: buildFlat(&listMix, flatDirs(2, 40))}
	for _, s := range []*spec{specByName("sync_mix"), specByName("subtree_ops"), lists} {
		name := s.name
		traces := s.generate(11, 1)
		bareSim, bareStats := simRun(t, s, traces, probes{})
		probe := &probeStore{}
		sim, stats := simRun(t, s, traces, probes{store: probe})
		if sim != bareSim || stats != bareStats {
			t.Errorf("%s: wrapped run sim=%v stats=%+v, bare run sim=%v stats=%+v", name, sim, stats, bareSim, bareStats)
		}
		if c := probe.snapshot(); c.Items[pGet] != stats.Gets || c.Items[pPut] != stats.Puts ||
			c.Items[pHead] != stats.Heads || c.Items[pDelete] != stats.Deletes || c.Items[pCopy] != stats.Copies {
			t.Errorf("%s: probe counted %+v, cluster %+v", name, c.Items, stats)
		}
	}
}

// TestCountedPassRepeats: one seed, two counted passes, byte-identical
// metrics — including subtree_ops, whose walkers run on pipeline
// goroutines.
func TestCountedPassRepeats(t *testing.T) {
	render := func(c *countedResult) string {
		m := map[string]value{}
		countedLayers(c, func(name string, v float64, n int64) { m[name] = value{v, n} })
		m["sim_ns"] = value{float64(c.simNs), c.ops}
		m["stored_bytes"] = value{float64(c.stored.Bytes), c.stored.Objects}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, name := range []string{"sync_mix", "subtree_ops", "http_mix"} {
		s := specByName(name)
		traces := s.generate(13, 1)
		setup := &setupClock{}
		tl := &tally{}
		a, err := countedPass(s, traces, false, setup, tl)
		if err != nil {
			t.Fatal(err)
		}
		b, err := countedPass(s, traces, false, setup, tl)
		if err != nil {
			t.Fatal(err)
		}
		if tl.failed != 0 {
			t.Fatalf("%s: %v", name, tl.notes)
		}
		if ra, rb := render(a), render(b); ra != rb {
			t.Errorf("%s: counted pass is not repeatable:\n%s\n%s", name, ra, rb)
		}
	}
}
