package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/h2cloud/h2cloud/internal/chaos"
	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/gossip"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/netsim"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// ChaosAvailability is the availability-under-faults experiment: a seeded
// chaos engine injects transient store errors (rate swept along the x
// axis), latency spikes, a node crash/restart schedule, and gossip
// drops/delays, while two middlewares, each retrying transient errors in
// its store ring, run a deterministic create/write/read workload. Reported per rate: acknowledged vs failed
// operations, retry and degraded-read counters, the retry-inflated mean
// service time, the paper's α ratio against that mean, and — the
// robustness acceptance bar — how many acknowledged writes were lost
// after the cluster heals (must be zero at every rate).
func ChaosAvailability(quick bool) (Result, error) {
	rates := []float64{0, 0.05, 0.10, 0.20, 0.30}
	ops := 400
	if quick {
		rates = []float64{0, 0.10, 0.20}
		ops = 150
	}
	res := Result{
		Experiment: "chaos",
		Title:      "availability under injected faults (retry + degraded reads + repair)",
		Unit:       "mixed",
		Header: []string{
			"fault rate", "ops", "acked", "failed", "retries",
			"degraded reads", "read repairs", "injected faults",
			"mean op (ms)", "alpha", "lost acked",
		},
		Notes: []string{
			"same seed => byte-identical results (deterministic chaos engine)",
			"lost acked must be 0: every acknowledged write is readable after Repair",
			"mean op time includes backoff charged to the virtual clock",
		},
	}
	rtt := netsim.PaperRTT(1).Mean()
	for _, rate := range rates {
		row, err := chaosRun(rate, ops, rtt)
		if err != nil {
			return res, fmt.Errorf("chaos rate %.2f: %w", rate, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, checkChaos(res)
}

// checkChaos holds the sweep to its claims: every rate acknowledges
// writes and loses none of them, from a 10% fault rate on every rate
// retries, and degraded reads are served under those faults. Those come
// from the heal phase's read-back, which reaches a restarted node before
// repair; at 0.30 few writes are acknowledged, so the full sweep's row
// records one, and the claim is asked of one such rate, not of each.
func checkChaos(res Result) error {
	c := claims{res: res}
	c.check(len(res.Rows) > 0, "no sweep rows")
	degraded := false
	for _, row := range res.Rows {
		rate := c.str(row, "fault rate")
		c.check(c.num(row, "lost acked") == 0, "rate %s lost acknowledged writes", rate)
		c.check(c.num(row, "acked") > 0, "rate %s acknowledged nothing", rate)
		if c.num(row, "fault rate") >= 0.10 {
			c.check(c.num(row, "retries") > 0, "rate %s: the retry counter never fired", rate)
			degraded = degraded || c.num(row, "degraded reads") > 0
		}
	}
	c.check(degraded, "no degraded read recorded at a fault rate of 0.10 or more")
	return c.err()
}

// chaosRun drives one fault-rate cell and returns its table row.
func chaosRun(rate float64, ops int, rtt time.Duration) ([]string, error) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	profile := cluster.SwiftProfile()
	c, err := cluster.New(cluster.Config{Profile: profile, Clock: clock})
	if err != nil {
		return nil, err
	}
	devs := c.Ring().DeviceIDs()
	reg := metrics.NewRegistry()
	n := int64(ops)
	eng := chaos.New(chaos.Plan{
		Seed:      4242,
		ErrRate:   0, // window opens after setup
		SpikeRate: rate / 2,
		Spike:     30 * time.Millisecond,
		DropRate:  rate / 2,
		DelayRate: rate / 2,
		Events: []chaos.Event{
			{Step: n / 4, Node: devs[0], Down: true},
			{Step: n / 2, Node: devs[1], Down: true},
			{Step: 3 * n / 4, Node: devs[0], Down: false},
			{Step: 3 * n / 4, Node: devs[1], Down: false},
		},
	}, reg)
	eng.Bind(c)
	cs := eng.Store(c)
	inner := gossip.NewBus()
	bus := eng.Gossip(inner)

	mws := make([]*h2fs.Middleware, 2)
	for i := range mws {
		mws[i], err = h2fs.New(h2fs.Config{
			Store: cs, Node: i + 1, Profile: profile, Clock: clock,
			Gossip: bus, Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
	}
	if err := mws[0].CreateAccount(bg(), "bench"); err != nil {
		return nil, err
	}
	eng.SetErrRate(rate)

	content := func(p string) []byte { return []byte("chaos payload @ " + p) }
	tr := vclock.NewTracker()
	ctx := vclock.With(context.Background(), tr)
	// Each worker owns the directories it created (per-directory affinity,
	// as a load balancer would route): unflushed NameRing updates are
	// visible to their own middleware immediately, so any failure below is
	// an injected fault, not eventual-consistency lag.
	type worker struct {
		fs    fsapi.FileSystem
		dirs  []string
		files []string
	}
	workers := make([]*worker, len(mws))
	for i, m := range mws {
		workers[i] = &worker{fs: m.FS("bench")}
	}
	var files []string // global list, for the post-heal verification
	acked, failed := 0, 0
	for i := 0; i < ops; i++ {
		eng.Step()
		w := workers[i%len(workers)]
		switch {
		case i%10 == 0:
			p := fmt.Sprintf("/d%03d", i)
			if err := w.fs.Mkdir(ctx, p); err == nil {
				w.dirs = append(w.dirs, p)
				acked++
			} else {
				failed++
			}
		case i%5 == 0 && len(w.files) > 0:
			p := w.files[i%len(w.files)]
			if data, err := w.fs.ReadFile(ctx, p); err == nil && bytes.Equal(data, content(p)) {
				acked++
			} else {
				failed++
			}
		default:
			dir := ""
			if len(w.dirs) > 0 {
				dir = w.dirs[i%len(w.dirs)]
			}
			p := fmt.Sprintf("%s/f%03d", dir, i)
			if err := w.fs.WriteFile(ctx, p, content(p)); err == nil {
				w.files = append(w.files, p)
				files = append(files, p)
				acked++
			} else {
				failed++
			}
		}
		if i%10 == 9 {
			inner.Pump(bg())
		}
	}
	meanOp := time.Duration(0)
	if ops > 0 {
		meanOp = tr.Elapsed() / time.Duration(ops)
	}

	// Heal: fault window closes, nodes restart, anti-entropy runs, every
	// middleware flushes, and delayed gossip finally arrives. Before the
	// repair each worker reads back what it acknowledged, as a sync client
	// does on reconnect: a restarted node misses every object written while
	// it was down, so some of those reads are served degraded.
	eng.SetErrRate(0)
	for _, id := range devs {
		c.SetNodeDown(id, false)
	}
	for _, w := range workers {
		for _, p := range w.files {
			_, _ = w.fs.ReadFile(bg(), p)
		}
	}
	for round := 0; round < 3; round++ {
		c.Repair(bg(), 1)
		for _, m := range mws {
			if err := m.FlushAll(bg()); err != nil {
				return nil, fmt.Errorf("heal flush: %w", err)
			}
		}
		bus.ReleaseDelayed()
		inner.Pump(bg())
	}

	// The acceptance bar: every acknowledged write must read back intact
	// through a restarted middleware.
	lost := 0
	mws[0].Recover()
	verify := mws[0].FS("bench")
	for _, p := range files {
		data, err := verify.ReadFile(bg(), p)
		if err != nil || !bytes.Equal(data, content(p)) {
			lost++
		}
	}

	st := c.Stats()
	return []string{
		fmt.Sprintf("%.2f", rate),
		fmt.Sprintf("%d", ops),
		fmt.Sprintf("%d", acked),
		fmt.Sprintf("%d", failed),
		fmt.Sprintf("%d", reg.Counter("retry.attempts")),
		fmt.Sprintf("%d", st.DegradedGets),
		fmt.Sprintf("%d", st.ReadRepairs),
		fmt.Sprintf("%d", reg.Counter("chaos.faults")),
		fmt.Sprintf("%.2f", ms(meanOp)),
		fmt.Sprintf("%.2f", netsim.Alpha(rtt, meanOp)),
		fmt.Sprintf("%d", lost),
	}, nil
}
