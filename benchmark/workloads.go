package main

import (
	"fmt"

	"github.com/h2cloud/h2cloud/internal/workload"
)

// refSeconds is the -seconds value the per-round op counts below were
// sized for on a 2-vCPU 2.1 GHz Xeon: five measured rounds of about
// refSeconds/5 s each. Other values scale the counts linearly, so op
// counts stay exact functions of the flags, never of measured speed.
const refSeconds = 5

// spec is one benchmark workload: how its trees and traces are built and
// how the middleware under test is configured for it.
type spec struct {
	name string
	why  string
	// baseOps is the trace length per client and round at refSeconds.
	baseOps int
	// maintainEvery is K: a client runs MaintainOnce after every K of its
	// own ops. 0 means no maintenance during the trace.
	maintainEvery int
	// prefixShare is the share of each client's trace the counted and
	// traced passes replay.
	prefixShare float64

	descCacheLimit       int
	dirShardThreshold    int
	recoverAfterPopulate bool
	http                 bool

	// build populates the model and returns the populate ops plus a
	// function producing the next n trace ops.
	build func(m *model, client int) (populate []Op, next func(n int) []Op)
}

// syncMix is the paper's interactive sync-client mix
// (workload.DefaultWeights plus REMOVE), with STAT and WRITE split into
// their two flavours.
var syncMix = mix{weights: [numActions]int{
	aStatFile: 25, aStatDir: 5, aWriteNew: 12, aOverwrite: 13, aRead: 20, aList: 12,
	aMkdir: 6, aRename: 3, aMove: 2, aCopy: 1, aRmdir: 1, aRemove: 3,
}}

var lookupMix = mix{weights: [numActions]int{aStatFile: 70, aRead: 30}}

var churnMix = mix{noRoot: true, filesOnly: true, weights: [numActions]int{
	aWriteNew: 50, aOverwrite: 20, aRemove: 15, aRename: 10, aStatFile: 5,
}}

var listMix = mix{noRoot: true, weights: [numActions]int{
	aList: 65, aListDetail: 20, aWriteNew: 15,
}}

// buildMix populates a workload.Generate tree and continues with mx. The
// tree's shape is part of the workload's definition, like its size: it
// comes from a fixed shape seed per client, because the depth profile of
// one generated tree varies far more between seeds (simulated time per
// lookup by a fifth) than any change the benchmark is meant to resolve.
// The run's seed still draws payloads, content and the whole trace.
func buildMix(mx *mix, shape func(seed int64) workload.Spec) func(*model, int) ([]Op, func(int) []Op) {
	return func(m *model, client int) ([]Op, func(int) []Op) {
		populate := m.populateFrom(workload.Generate(shape(int64(1 + client))))
		return populate, func(n int) []Op { return m.generate(mx, n) }
	}
}

func deepTree(seed int64) workload.Spec {
	return workload.Spec{Seed: seed, Dirs: 2000, Files: 10000, MaxDepth: 22}
}

// flatDirs populates dirs directories of perDir files each under the root.
func flatDirs(dirs, perDir int) func(*model) []Op {
	return func(m *model) []Op {
		ops := make([]Op, 0, dirs*(perDir+1))
		for d := 0; d < dirs; d++ {
			ops = append(ops, m.opMkdir(m.root, fmt.Sprintf("dir%02d", d)))
			parent := m.dirs[len(m.dirs)-1]
			for f := 0; f < perDir; f++ {
				ops = append(ops, m.opWriteNew(parent, fmt.Sprintf("file%06d.dat", f)))
			}
		}
		return ops
	}
}

func buildFlat(mx *mix, populate func(*model) []Op) func(*model, int) ([]Op, func(int) []Op) {
	return func(m *model, _ int) ([]Op, func(int) []Op) {
		return populate(m), func(n int) []Op { return m.generate(mx, n) }
	}
}

// buildSubtree scripts the structural loop: COPY the template to w_i,
// MOVE it under another parent, RENAME it there, RMDIR it.
func buildSubtree(m *model, _ int) ([]Op, func(int) []Op) {
	var populate []Op
	populate = append(populate, m.opMkdir(m.root, "template"))
	template := m.dirs[len(m.dirs)-1]
	for s := 0; s < 8; s++ {
		populate = append(populate, m.opMkdir(template, fmt.Sprintf("sub%d", s)))
		sub := m.dirs[len(m.dirs)-1]
		for f := 0; f < 8; f++ {
			populate = append(populate, m.opWriteNew(sub, fmt.Sprintf("file%d.dat", f)))
		}
	}
	populate = append(populate, m.opMkdir(m.root, "parents"))
	parents := m.dirs[len(m.dirs)-1]
	var slots []*node
	for p := 0; p < 4; p++ {
		populate = append(populate, m.opMkdir(parents, fmt.Sprintf("p%d", p)))
		slots = append(slots, m.dirs[len(m.dirs)-1])
	}
	step, iter := 0, 0
	var work *node
	next := func(n int) []Op {
		ops := make([]Op, 0, n)
		for len(ops) < n {
			switch step {
			case 0:
				iter++
				ops = append(ops, m.opCopy(template, m.root, fmt.Sprintf("w%06d", iter)))
				work = m.root.kids[len(m.root.kids)-1]
			case 1:
				ops = append(ops, m.opMove(work, slots[iter%len(slots)], work.name))
			case 2:
				ops = append(ops, m.opRename(work, work.name+"r"))
			case 3:
				ops = append(ops, m.opRmdir(work))
			}
			step = (step + 1) % 4
		}
		return ops
	}
	return populate, next
}

// specs lists the seven workloads in reporting order. The why sentences
// are repeated in BENCHMARK.json and README.md.
var specs = []*spec{
	{
		name:    "sync_mix",
		why:     "the paper's interactive mix on light-user trees: every layer does a moderate share, so a regression anywhere shows; subtraction baseline for http_mix",
		baseOps: 22000, maintainEvery: 256, prefixShare: 0.25,
		build: buildMix(&syncMix, workload.LightUser),
	},
	{
		name:    "deep_lookup",
		why:     "STAT/READ over deep trees with every descriptor cached: h2fs resolve and the cache-hit path do nearly all the work, the store sees one request per op",
		baseOps: 75000, prefixShare: 0.25,
		build: buildMix(&lookupMix, deepTree),
	},
	{
		name:    "cold_lookup",
		why:     "same trees and mix with a descriptor cache of 3% of the working set after a restart: core decode, cluster GETs and patch-chain probes dominate; bypass control for deep_lookup",
		baseOps: 8500, prefixShare: 0.25,
		descCacheLimit: 128, recoverAfterPopulate: true,
		build: buildMix(&lookupMix, deepTree),
	},
	{
		name:    "big_dir_churn",
		why:     "writes, removes and renames inside one sharded directory of 16384 files, merged every 8 ops: the Background Merger's flush (codec over O(m) tuples, extent batches) does most of the work",
		baseOps: 200, maintainEvery: 8, prefixShare: 1,
		dirShardThreshold: 2048,
		build:             buildFlat(&churnMix, flatDirs(1, 16384)),
	},
	{
		name:    "list_heavy",
		why:     "plain and detailed LISTs of 1000-entry directories that keep receiving writes: NameRing.Live sort, EntryInfo materialisation and the MultiHead fan-out dominate",
		baseOps: 1400, maintainEvery: 64, prefixShare: 1,
		build: buildFlat(&listMix, flatDirs(8, 1000)),
	},
	{
		name:    "subtree_ops",
		why:     "COPY, MOVE, RENAME and RMDIR of a 72-entry subtree in a loop: the O(n) walkers run beside the O(1) structural ops that barely appear in the other workloads",
		baseOps: 1360, maintainEvery: 64, prefixShare: 0.25,
		build: buildSubtree,
	},
	{
		name:    "http_mix",
		why:     "the first half of the identical sync_mix trace through httpapi client, TCP loopback and server: httpapi does most of the work, so an h2fs or core change should barely move it",
		baseOps: 11000, maintainEvery: 256, prefixShare: 0.5, http: true,
		build: buildMix(&syncMix, workload.LightUser),
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// clientTrace is everything one client (one account) needs for a run.
type clientTrace struct {
	account  string
	populate []Op
	ops      []Op
	prefix   int      // ops the counted and traced passes replay
	atPrefix snapshot // model state after ops[:prefix]
	final    *model   // model state after all ops
}

const numClients = 2

// opsPerClient scales the workload's trace length to the run length.
func (s *spec) opsPerClient(seconds int) int {
	n := s.baseOps * seconds / refSeconds
	if n < 16 {
		n = 16
	}
	return n
}

// generate builds both clients' traces from the seed alone.
func (s *spec) generate(seed int64, seconds int) []*clientTrace {
	n := s.opsPerClient(seconds)
	traces := make([]*clientTrace, numClients)
	for c := range traces {
		m := newModel(seed*7919 + int64(c))
		m.every = s.maintainEvery
		populate, next := s.build(m, c)
		t := &clientTrace{account: fmt.Sprintf("user%d", c), populate: populate, final: m}
		t.prefix = int(float64(n) * s.prefixShare)
		t.ops = next(t.prefix)
		t.atPrefix = m.snapshot()
		t.ops = append(t.ops, next(n-t.prefix)...)
		traces[c] = t
	}
	return traces
}
