package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"
)

// spanSums is what the analysis reads off one traced pass.
type spanSums struct {
	opDur     int64 // root op spans
	opSelf    int64 // their self time
	opStore   int64 // store spans beneath them
	maintain  int64 // MaintainOnce root spans
	roundtrip int64
	handler   int64
	primNs    map[string]int64 // singular store spans by primitive name
	primN     map[string]int64
	rootDur   []int64 // root op span durations in trace order
	handlers  []int64 // handler span durations in trace order
}

func sumSpans(tr *tracer) spanSums {
	t := buildTree(tr.spans)
	s := spanSums{primNs: map[string]int64{}, primN: map[string]int64{}}
	for _, r := range t.roots {
		root := &t.spans[r]
		if root.Name == "maintain" {
			s.maintain += root.dur()
		} else {
			s.opDur += root.dur()
			s.opSelf += t.self(r)
			s.rootDur = append(s.rootDur, root.dur())
		}
		t.walk(r, func(i int) {
			sp := &t.spans[i]
			switch {
			case sp.Layer == "cluster":
				if root.Name != "maintain" {
					s.opStore += sp.dur()
				}
				s.primNs[sp.Name] += sp.dur()
				s.primN[sp.Name]++
			case sp.Name == "roundtrip":
				s.roundtrip += sp.dur()
			case sp.Name == "handler":
				s.handler += sp.dur()
				s.handlers = append(s.handlers, sp.dur())
			}
		})
	}
	return s
}

// traceDir is where the traced pass leaves trace-<workload>.jsonl,
// relative to the working directory.
const traceDir = "out/benchmark"

// timerOverhead is the cost of the two clock readings around each op.
func timerOverhead() float64 {
	const n = 200000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := time.Now()
		sink += time.Since(a)
	}
	_ = sink
	return float64(time.Since(t0)) / n
}

// layerMetrics runs the traced pass and the replays and fills in every
// per-layer metric. The timed and counted passes it reads were run with
// tracing off and with the counting wrapper respectively; nothing here
// feeds an end-to-end metric.
func layerMetrics(s *spec, traces []*clientTrace, timed *timedResult, counted *countedResult,
	setup *setupClock, tl *tally, put func(name string, v float64, n int64)) error {
	traced, err := tracedPass(s, traces, setup, tl)
	if err != nil {
		return err
	}
	if err := traced.tr.write(filepath.Join(traceDir, "trace-"+s.name+".jsonl")); err != nil {
		return err
	}
	if err := buildTree(traced.tr.spans).check(); err != nil {
		tl.fail("traced pass: " + err.Error())
	}
	sums := sumSpans(traced.tr)
	ops := float64(traced.ops)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / ops }

	// client
	var all []int64
	for k := Kind(0); k < numKinds; k++ {
		lat := sortedCopy(traced.kind[k])
		put("client."+k.String()+"_p50_us", percentile(lat, 0.50)/1e3, int64(len(lat)))
		put("client."+k.String()+"_p99_us", percentile(lat, 0.99)/1e3, int64(len(lat)))
		all = append(all, lat...)
	}
	perRound := int64(len(timed.rounds[0].lat))
	put("client.op_p50_us", slices.Min(timed.each(func(r *round) float64 { return percentile(r.lat, 0.50) / 1e3 })), perRound)
	put("client.op_p95_us", slices.Min(timed.each(func(r *round) float64 { return percentile(r.lat, 0.95) / 1e3 })), perRound)
	put("client.op_p99_us", median(timed.each(func(r *round) float64 { return percentile(r.lat, 0.99) / 1e3 })), perRound)
	put("client.op_p999_us", median(timed.each(func(r *round) float64 { return percentile(r.lat, 0.999) / 1e3 })), perRound)
	put("client.timer_overhead_ns", timerOverhead(), 0)
	put("client.maintain_share", median(timed.each(func(r *round) float64 {
		return ratio(float64(r.maintain), float64(r.wall)*numClients)
	})), 0)

	// h2fs and cluster, from spans. Over HTTP the handler calls the
	// middleware directly, so the h2fs span comes from a facade twin of
	// the same traced prefix.
	h2fsSelf, h2fsRoots := sums.opSelf, sums.rootDur
	if s.http {
		twin := *s
		twin.http = false
		tw, err := tracedPass(&twin, traces, setup, tl)
		if err != nil {
			return err
		}
		ts := sumSpans(tw.tr)
		h2fsSelf, h2fsRoots = ts.opSelf, ts.rootDur
	}
	put("h2fs.self_us_per_op", us(h2fsSelf), traced.ops)
	put("h2fs.maintain_us_per_op", us(sums.maintain), traced.ops)
	put("cluster.self_us_per_op", us(sums.opStore), traced.ops)
	for p := prim(0); p < numPrims; p++ {
		name := primNames[p]
		put("cluster."+name+"_ns_per_call", ratio(float64(sums.primNs[name]), float64(sums.primN[name])), sums.primN[name])
	}
	if !s.http {
		// Span bookkeeping against the client's own timer: self time plus
		// store time has to reconstruct what the client saw.
		var clientNs int64
		for _, d := range traced.opNs {
			clientNs += d
		}
		if got := float64(sums.opSelf + sums.opStore); got < 0.95*float64(clientNs) || got > 1.05*float64(clientNs) {
			tl.fail(fmt.Sprintf("traced pass: h2fs self + cluster self = %.0f ns, client saw %d ns", got, clientNs))
		}
	}

	// httpapi
	hp := traced.probes.http
	if s.http {
		var serverSelf int64
		for i, d := range sums.handlers {
			if i < len(h2fsRoots) {
				serverSelf += d - h2fsRoots[i]
			}
		}
		put("httpapi.client_self_us_per_op", us(sums.opDur-sums.roundtrip), traced.ops)
		put("httpapi.wire_us_per_op", us(sums.roundtrip-sums.handler), traced.ops)
		put("httpapi.server_self_us_per_op", us(serverSelf), traced.ops)
		put("httpapi.req_bytes_per_op", float64(hp.reqBytes.Load())/ops, traced.ops)
		put("httpapi.resp_bytes_per_op", float64(hp.respBytes.Load())/ops, traced.ops)
		reuse := ratio(float64(hp.reused.Load()), float64(hp.conns.Load()))
		put("httpapi.conn_reuse_ratio", reuse, hp.conns.Load())
		if reuse <= 0.99 {
			tl.fail(fmt.Sprintf("guard: http_mix reused %.4f of its connections, want > 0.99", reuse))
		}
	}

	// Below the store boundary: replays of the counted pass's call stream.
	calls, from := counted.calls, counted.from
	cops := float64(counted.ops)
	nsPerCall, allocsPerCall, diverged, err := storemwCost(calls, from)
	if err != nil {
		return err
	}
	if diverged > 0 {
		tl.fail(fmt.Sprintf("replay: %d store calls ended differently from the recorded run", diverged))
	}
	measured := int64(len(calls) - from)
	put("storemw.self_ns_per_call", nsPerCall, measured)
	put("storemw.allocs_per_call", allocsPerCall, measured)
	put("storemw.self_us_per_op", nsPerCall*float64(measured)/1e3/cops, counted.ops)
	ringNs, keys, err := ringCost(calls, from)
	if err != nil {
		return err
	}
	put("ring.place_ns_per_key", ratio(float64(ringNs), float64(keys)), int64(keys))
	put("ring.us_per_op", float64(ringNs)/1e3/cops, counted.ops)
	put("objstore.node_us_per_op", float64(nodeCost(calls, from))/1e3/cops, counted.ops)

	// trace
	tracedP50 := percentile(sortedCopy(all), 0.50)
	timedP50 := slices.Min(timed.each(func(r *round) float64 { return percentile(r.lat, 0.50) }))
	put("trace.overhead_pct", 100*ratio(tracedP50-timedP50, timedP50), traced.ops)
	return nil
}
