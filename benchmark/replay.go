package main

import (
	"context"
	"runtime"
	"slices"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/storemw"
)

// Layers below the objstore.Store boundary cannot be interposed on from
// outside the program, so they are measured by replaying the call stream
// the counted pass recorded at that boundary against each of them alone.
// The stream includes the populate phase, replayed untimed, so that reads
// hit and miss exactly as they did in the recorded run.

// replayBuf backs every replayed payload; only sizes were recorded.
var replayBuf = make([]byte, 4<<20)

func payloadOf(size int) []byte {
	if size > len(replayBuf) {
		replayBuf = make([]byte, size)
	}
	return replayBuf[:size]
}

// issue replays one recorded call against a store and reports whether
// as many of its requests failed as did when it was recorded.
func issue(ctx context.Context, s objstore.Store, c *call) bool {
	errs := 0
	note := func(err error) {
		if err != nil {
			errs++
		}
	}
	switch {
	case c.multi && c.prim == pGet:
		for _, r := range objstore.MultiGet(ctx, s, c.keys) {
			note(r.Err)
		}
	case c.multi && c.prim == pHead:
		for _, r := range objstore.MultiHead(ctx, s, c.keys) {
			note(r.Err)
		}
	case c.multi && c.prim == pDelete:
		for _, err := range objstore.MultiDelete(ctx, s, c.keys) {
			note(err)
		}
	case c.multi && c.prim == pPut:
		reqs := make([]objstore.PutReq, len(c.keys))
		for i, k := range c.keys {
			reqs[i] = objstore.PutReq{Name: k, Data: payloadOf(c.sizes[i])}
		}
		for _, err := range objstore.MultiPut(ctx, s, reqs) {
			note(err)
		}
	case c.rng:
		_, _, err := s.GetRange(ctx, c.key, 0, -1)
		note(err)
	case c.prim == pGet:
		_, _, err := s.Get(ctx, c.key)
		note(err)
	case c.prim == pPut:
		note(s.Put(ctx, c.key, payloadOf(c.size), c.meta))
	case c.prim == pHead:
		_, err := s.Head(ctx, c.key)
		note(err)
	case c.prim == pDelete:
		note(s.Delete(ctx, c.key))
	case c.prim == pCopy:
		note(s.Copy(ctx, c.key, c.dst))
	}
	return errs == c.errs
}

// replayStore runs the stream against s, timing and counting mallocs
// over calls[from:] only. diverged counts the calls whose outcome
// differed from the recording; it has to be 0 for the replay to have
// exercised the store the way the recorded run did.
func replayStore(s objstore.Store, calls []call, from int) (d time.Duration, mallocs uint64, diverged int) {
	ctx := context.Background()
	for i := range calls[:from] {
		if !issue(ctx, s, &calls[i]) {
			diverged++
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := from; i < len(calls); i++ {
		if !issue(ctx, s, &calls[i]) {
			diverged++
		}
	}
	d = time.Since(t0)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs, diverged
}

func freshCluster() (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{Profile: cluster.ZeroProfile()})
}

// storemwCost is the metrics ring's own cost: the same stream against the
// bare cluster and against the deployed stack over a cluster, alternated.
// Each side's fastest replay stands for it — interference only slows a
// replay down — and the difference of the two is the ring.
func storemwCost(calls []call, from int) (nsPerCall, allocsPerCall float64, diverged int, err error) {
	const reps = 3
	var bare, stacked, bareAllocs, stackedAllocs []float64
	for r := 0; r < reps; r++ {
		c, err := freshCluster()
		if err != nil {
			return 0, 0, 0, err
		}
		d, a, bad := replayStore(c, calls, from)
		bare, bareAllocs, diverged = append(bare, float64(d)), append(bareAllocs, float64(a)), diverged+bad
		if c, err = freshCluster(); err != nil {
			return 0, 0, 0, err
		}
		d, a, bad = replayStore(storemw.Stack(c, storemw.Metrics(metrics.NewRegistry())), calls, from)
		stacked, stackedAllocs, diverged = append(stacked, float64(d)), append(stackedAllocs, float64(a)), diverged+bad
	}
	n := float64(len(calls) - from)
	return (slices.Min(stacked) - slices.Min(bare)) / n, (median(stackedAllocs) - median(bareAllocs)) / n, diverged, nil
}

// eachKey visits every object key calls[from:] touched, in order.
func eachKey(calls []call, from int, fn func(key string)) {
	for i := from; i < len(calls); i++ {
		c := &calls[i]
		if c.multi {
			for _, k := range c.keys {
				fn(k)
			}
			continue
		}
		fn(c.key)
		if c.prim == pCopy {
			fn(c.dst)
		}
	}
}

// ringCost replays the measured key stream through the consistent-hashing
// ring, one placement per key.
func ringCost(calls []call, from int) (total time.Duration, keys int, err error) {
	c, err := freshCluster()
	if err != nil {
		return 0, 0, err
	}
	ring := c.Ring()
	var buf [8]int
	t0 := time.Now()
	eachKey(calls, from, func(key string) {
		_ = ring.DevicesAppend(key, buf[:0])
		keys++
	})
	return time.Since(t0), keys, nil
}

// nodeCost replays the stream on one standalone storage node, the way
// the cluster drives its devices: a write lands on three replicas, a read
// is served by one. It contains the MD5 ETag and the defensive copies.
func nodeCost(calls []call, from int) time.Duration {
	const replicas = 3
	node := objstore.NewNode(0)
	now := time.Unix(1_600_000_000, 0)
	one := func(p prim, key, dst string, size int, meta map[string]string) {
		// One node stands in for three replicas, so repeated deletes miss
		// by design and recorded misses miss again: outcomes carry no
		// information here, only the time spent does.
		switch p {
		case pGet:
			//h2vet:ignore droppederr a replayed miss is a miss in the recording too
			_, _, _ = node.Get(key)
		case pHead:
			_, _ = node.Head(key)
		case pPut:
			for r := 0; r < replicas; r++ {
				//h2vet:ignore droppederr an in-memory node that is up cannot fail a put
				_ = node.Put(key, payloadOf(size), meta, now)
			}
		case pDelete:
			for r := 0; r < replicas; r++ {
				//h2vet:ignore droppederr the second and third replica delete miss by design
				_ = node.Delete(key)
			}
		case pCopy:
			if data, info, err := node.Get(key); err == nil {
				for r := 0; r < replicas; r++ {
					//h2vet:ignore droppederr an in-memory node that is up cannot fail a put
					_ = node.Put(dst, data, info.Meta, now)
				}
			}
		}
	}
	run := func(c *call) {
		if !c.multi {
			one(c.prim, c.key, c.dst, c.size, c.meta)
			return
		}
		for i, k := range c.keys {
			size := 0
			if c.sizes != nil {
				size = c.sizes[i]
			}
			one(c.prim, k, "", size, nil)
		}
	}
	for i := range calls[:from] {
		run(&calls[i])
	}
	t0 := time.Now()
	for i := from; i < len(calls); i++ {
		run(&calls[i])
	}
	return time.Since(t0)
}
