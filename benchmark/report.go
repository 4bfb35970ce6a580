package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// metricDef names one metric. The lists below are the benchmark's
// contract; BENCHMARK.json repeats them and a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline by which it may worsen
}

// endToEnd is what a user of the system sees. failed_op_share is reported
// beside these in the full run but has no bound: it must be 0. Pooled op
// latency percentiles are per-layer metrics (client.op_p50_us and up):
// between runs with different seeds op_p50_us moved by up to 13 % and
// op_p95_us by up to 20 % on this host, too much for any bound to mean
// something — sync_mix's median, for one, sits exactly on the step between
// its cheap half (STAT, READ) and its expensive half.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.12},
	{"heap_live_mb", "MiB", "lower", 0.15},
	{"sim_ms_per_op", "sim_ms", "lower", 0.12},
	{"store_reqs_per_op", "count", "lower", 0.05},
	{"store_bytes_per_op", "B", "lower", 0.08},
	{"stored_bytes_per_user_byte", "B/B", "lower", 0.04},
	{"setup_s", "s", "lower", 0.25},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer lists the per-layer metrics, layer = package name.
func perLayer() []metricDef {
	var d []metricDef
	for k := Kind(0); k < numKinds; k++ {
		d = append(d, lower("client."+k.String()+"_p50_us", "us"), lower("client."+k.String()+"_p99_us", "us"))
	}
	d = append(d,
		lower("client.op_p50_us", "us"), lower("client.op_p95_us", "us"),
		lower("client.op_p99_us", "us"), lower("client.op_p999_us", "us"),
		lower("client.timer_overhead_ns", "ns"), lower("client.maintain_share", "ratio"),
		lower("httpapi.client_self_us_per_op", "us"), lower("httpapi.wire_us_per_op", "us"),
		lower("httpapi.server_self_us_per_op", "us"), lower("httpapi.req_bytes_per_op", "B"),
		lower("httpapi.resp_bytes_per_op", "B"), higher("httpapi.conn_reuse_ratio", "ratio"),
		lower("h2fs.self_us_per_op", "us"), lower("h2fs.ring_loads_per_op", "count"),
		lower("h2fs.patch_probes_per_op", "count"), lower("h2fs.probe_miss_ratio", "ratio"),
		lower("h2fs.desc_evictions_per_op", "count"), lower("h2fs.desc_cache_size", "count"),
		lower("h2fs.dirshard_extents", "count"), lower("h2fs.dirshard_splits", "count"),
		lower("h2fs.maintain_us_per_op", "us"), lower("h2fs.flush_read_bytes_per_op", "B"),
		lower("h2fs.flush_write_bytes_per_op", "B"), lower("h2fs.flush_store_reqs_per_op", "count"),
		lower("storemw.self_ns_per_call", "ns"), lower("storemw.allocs_per_call", "count"),
		lower("storemw.self_us_per_op", "us"),
		lower("cluster.self_us_per_op", "us"), lower("cluster.calls_per_op", "count"),
	)
	for p := prim(0); p < numPrims; p++ {
		d = append(d, lower("cluster."+primPlurals[p]+"_per_op", "count"))
	}
	for p := prim(0); p < numPrims; p++ {
		d = append(d, lower("cluster."+primNames[p]+"_ns_per_call", "ns"))
	}
	d = append(d, lower("cluster.bytes_in_per_op", "B"), lower("cluster.bytes_out_per_op", "B"))
	for c := keyClass(0); c < numClasses; c++ {
		d = append(d, lower("cluster.reqs_"+classNames[c]+"_per_op", "count"))
	}
	d = append(d,
		lower("cluster.objects_per_entry", "ratio"), lower("cluster.degraded_gets", "count"),
		lower("ring.place_ns_per_key", "ns"), lower("ring.us_per_op", "us"),
		lower("objstore.node_us_per_op", "us"),
		lower("core.decode_us_per_op", "us"), lower("core.encode_us_per_op", "us"),
		lower("core.codec_bytes_per_op", "B"), lower("core.tuples_decoded_per_op", "count"),
	)
	for k := Kind(0); k < numKinds; k++ {
		d = append(d, lower("vclock."+k.String()+"_sim_ms", "sim_ms"))
	}
	d = append(d,
		lower("vclock.maintain_sim_ms_per_op", "sim_ms"),
		lower("gossip.broadcasts_per_op", "count"),
		lower("runtime.gc_cycles", "count"), lower("runtime.gc_pause_total_ms", "ms"),
		lower("runtime.heap_peak_mb", "MiB"),
		lower("trace.overhead_pct", "%"),
	)
	return d
}

// value is one reported number with the count of samples behind it
// (0 where a sample count has no meaning).
type value struct {
	V float64 `json:"value"`
	N int64   `json:"n,omitempty"`
}

// result is one workload's run.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Ops       int64            `json:"ops_per_round"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Notes     []string         `json:"notes,omitempty"`

	counted *countedResult
}

// runWorkload is the one entry point: generate the inputs from the seed,
// run the passes, verify, and assemble every metric by name.
func runWorkload(s *spec, seed int64, seconds, rounds int, layers bool) (*result, error) {
	setup := &setupClock{}
	tl := &tally{}
	t0 := time.Now()
	traces := s.generate(seed, seconds)
	setup.once(time.Since(t0))

	timed, err := timedPass(s, traces, seed, rounds, setup, tl)
	if err != nil {
		return nil, err
	}
	counted, err := countedPass(s, traces, layers, setup, tl)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: s.name, Seed: seed, Seconds: seconds, Ops: timed.ops,
		EndToEnd: map[string]value{}, counted: counted,
	}
	if s.http {
		// The same prefix through the facade must cost the cloud exactly
		// what it cost through HTTP: the wire adds no store traffic.
		twin := *s
		twin.http = false
		facade, err := countedPass(&twin, traces, false, setup, tl)
		if err != nil {
			return nil, err
		}
		if !sameCounted(counted, facade) {
			tl.fail("guard: http_mix counted metrics differ from the facade's on the same prefix")
		}
	}
	guards(s, counted, tl)

	ops := float64(timed.ops)
	e := func(name string, v float64, n int64) { res.EndToEnd[name] = value{v, n} }
	// The host this runs on is a shared virtual machine whose speed dips
	// for seconds at a time; interference only ever slows a round down,
	// so the fastest of the measured rounds is the one nearest the
	// undisturbed machine. Over 8 back-to-back sets of 5 rounds the best
	// round moved by 1.4 % (ops/s) and 2.2 % (CPU) where the median of the
	// 5 moved by 5.0 % and 6.5 %. Allocation counts do not depend on speed
	// and stay medians.
	e("ops_per_s", slices.Max(timed.each(func(r *round) float64 { return ops / r.wall.Seconds() })), int64(rounds))
	e("cpu_us_per_op", slices.Min(timed.each(func(r *round) float64 { return float64(r.cpu) / 1e3 / ops })), int64(rounds))
	e("allocs_per_op", median(timed.each(func(r *round) float64 { return float64(r.mallocs) / ops })), int64(rounds))
	e("alloc_bytes_per_op", median(timed.each(func(r *round) float64 { return float64(r.allocBytes) / ops })), int64(rounds))
	e("heap_live_mb", timed.heapLiveMB, 1)
	cops := float64(counted.ops)
	e("sim_ms_per_op", float64(counted.simNs)/1e6/cops, counted.ops)
	e("store_reqs_per_op", float64(counted.c.requests())/cops, counted.ops)
	e("store_bytes_per_op", float64(counted.c.BytesIn+counted.c.BytesOut)/cops, counted.ops)
	e("stored_bytes_per_user_byte", ratio(float64(counted.stored.Bytes), float64(counted.live.liveBytes)), counted.ops)

	if layers {
		res.PerLayer = map[string]value{}
		for _, d := range perLayer() {
			res.PerLayer[d.Name] = value{} // a metric with no samples on this workload reads 0
		}
		put := func(name string, v float64, n int64) { res.PerLayer[name] = value{v, n} }
		countedLayers(counted, put)
		put("runtime.gc_cycles", median(timed.each(func(r *round) float64 { return float64(r.gcCycles) })), int64(rounds))
		put("runtime.gc_pause_total_ms", median(timed.each(func(r *round) float64 { return float64(r.gcPause) / 1e6 })), int64(rounds))
		put("runtime.heap_peak_mb", timed.heapSysMB, 1)
		if err := layerMetrics(s, traces, timed, counted, setup, tl, put); err != nil {
			return nil, err
		}
	}
	e("setup_s", setup.seconds(), int64(len(setup.systems)))
	res.Attempted, res.Failed, res.Notes = tl.attempted, tl.failed, tl.notes
	e("failed_op_share", ratio(float64(tl.failed), float64(tl.attempted)), tl.attempted)
	return res, nil
}

// sameCounted compares what the counted pass promises is exact.
func sameCounted(a, b *countedResult) bool {
	return a.ops == b.ops && a.simNs == b.simNs && a.c.requests() == b.c.requests() &&
		a.c.BytesIn == b.c.BytesIn && a.c.BytesOut == b.c.BytesOut && a.stored.Bytes == b.stored.Bytes
}

// guards assert that a workload does what its description says.
func guards(s *spec, c *countedResult, tl *tally) {
	ops := float64(c.ops)
	evictions, loads := float64(c.evictions)/ops, float64(c.c.RingLoads)/ops
	switch s.name {
	case "cold_lookup":
		if evictions <= 0 || loads <= 1 {
			tl.fail(fmt.Sprintf("guard: cold_lookup evicted %.3f and loaded %.3f rings per op, want > 0 and > 1", evictions, loads))
		}
	case "deep_lookup":
		if c.evictions != 0 || c.c.RingLoads != 0 {
			tl.fail(fmt.Sprintf("guard: deep_lookup evicted %d descriptors and loaded %d rings after warm-up, want 0 and 0", c.evictions, c.c.RingLoads))
		}
	case "big_dir_churn":
		if c.extents < 8 {
			tl.fail(fmt.Sprintf("guard: big_dir_churn runs on %d extents, want >= 8", c.extents))
		}
	}
}

// countedLayers fills in the per-layer metrics that are exact counts.
func countedLayers(c *countedResult, put func(string, float64, int64)) {
	ops := float64(c.ops)
	per := func(name string, v int64) { put(name, float64(v)/ops, c.ops) }
	per("h2fs.ring_loads_per_op", c.c.RingLoads)
	per("h2fs.patch_probes_per_op", c.c.PatchProbes)
	put("h2fs.probe_miss_ratio", ratio(float64(c.c.ProbeMisses), float64(c.c.PatchProbes)), c.c.PatchProbes)
	per("h2fs.desc_evictions_per_op", c.evictions)
	put("h2fs.desc_cache_size", float64(c.cacheSize), 0)
	put("h2fs.dirshard_extents", float64(c.extents), 0)
	put("h2fs.dirshard_splits", float64(c.splits), 0)
	per("h2fs.flush_read_bytes_per_op", c.c.FlushRead)
	per("h2fs.flush_write_bytes_per_op", c.c.FlushWrite)
	per("h2fs.flush_store_reqs_per_op", c.c.FlushReqs)
	per("cluster.calls_per_op", c.c.Calls)
	for p := prim(0); p < numPrims; p++ {
		per("cluster."+primPlurals[p]+"_per_op", c.c.Items[p])
	}
	per("cluster.bytes_in_per_op", c.c.BytesIn)
	per("cluster.bytes_out_per_op", c.c.BytesOut)
	for k := keyClass(0); k < numClasses; k++ {
		per("cluster.reqs_"+classNames[k]+"_per_op", c.c.Class[k])
	}
	put("cluster.objects_per_entry", ratio(float64(c.stored.Objects), float64(c.live.entries)), int64(c.live.entries))
	put("cluster.degraded_gets", float64(c.stored.DegradedGets), 0)
	put("core.decode_us_per_op", float64(c.c.DecodeNs)/1e3/ops, c.ops)
	put("core.encode_us_per_op", float64(c.c.EncodeNs)/1e3/ops, c.ops)
	per("core.codec_bytes_per_op", c.c.CodecBytes)
	per("core.tuples_decoded_per_op", c.c.CodecTuples)
	for k := Kind(0); k < numKinds; k++ {
		put("vclock."+k.String()+"_sim_ms", ratio(float64(c.kindNs[k])/1e6, float64(c.kindN[k])), c.kindN[k])
	}
	put("vclock.maintain_sim_ms_per_op", float64(c.maintainNs)/1e6/ops, c.ops)
	per("gossip.broadcasts_per_op", c.broadcasts)
}

// crossGuards are the assertions that need two workloads' results.
func crossGuards(results map[string]*result) []string {
	var notes []string
	deep, cold := results["deep_lookup"], results["cold_lookup"]
	if deep != nil && cold != nil {
		d, c := deep.EndToEnd["store_reqs_per_op"].V, cold.EndToEnd["store_reqs_per_op"].V
		if c < 5*d {
			notes = append(notes, fmt.Sprintf("guard: cold_lookup makes %.2f store requests per op, deep_lookup %.2f: want >= 5x", c, d))
		}
	}
	facade, web := results["sync_mix"], results["http_mix"]
	if facade != nil && web != nil && !sameCounted(facade.counted, web.counted) {
		notes = append(notes, "guard: http_mix counted metrics differ from sync_mix's on the shared prefix")
	}
	return notes
}

// printResult writes every metric by name with its unit and sample count.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%d  ops/round=%d  attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Ops, r.Attempted, r.Failed)
	line := func(name, unit string, v value) {
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  n=%d", v.N)
		}
		fmt.Fprintf(w, "%-14s %-34s %16.4f %-7s%s\n", r.Workload, name, v.V, unit, n)
	}
	for _, d := range endToEnd {
		line(d.Name, d.Unit, r.EndToEnd[d.Name])
	}
	line("failed_op_share", "ratio", r.EndToEnd["failed_op_share"])
	if r.PerLayer != nil {
		for _, d := range perLayer() {
			line(d.Name, d.Unit, r.PerLayer[d.Name])
		}
	}
	notes := append([]string(nil), r.Notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "%-14s FAILED %s\n", r.Workload, n)
	}
}
