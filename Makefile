# H2Cloud developer targets (pure Go stdlib; no external dependencies).

GO ?= go

.PHONY: all build lint lint-json lint-timed loc loc-check test race bench bench-smoke bench-wallclock benchmark benchmark-test fuzz experiments examples tools clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Repo-specific static analysis, eleven rules: per-unit (virtualtime,
# mapiter, lockcheck, droppederr, backoffcheck, atomiccheck) plus
# whole-program (costcheck, lockorder, sentinelcheck, ctxcheck,
# deadignore) over a shared typed module with an RTA-refined call graph.
# 'h2vet -explain <rule>' documents each; DESIGN.md, "What guards what",
# says which gate owns the bug classes h2vet leaves to tests and benches
# (data races: fstest's ConcurrentMix under make race).
lint:
	$(GO) run ./cmd/h2vet ./...

# Machine-readable findings for the CI baseline gate: emits h2vet.json.
# Exits 1 on findings absent from h2vet.baseline.json and 3 on baseline
# entries that no longer fire (stale suppressions must be pruned).
lint-json:
	$(GO) run ./cmd/h2vet -json -baseline h2vet.baseline.json ./... > h2vet.json

# Wall-clock guard for the whole-program analyses: make lint must finish
# within 2x the committed budget (seconds in lint.budget; 50s covers the
# whole-program rules plus CI cold-cache compile — warm local runs take
# ~4s). A blowup usually means an analyzer went superlinear on the call
# graph or the RTA fixpoint stopped converging.
lint-timed:
	@start=$$(date +%s); $(MAKE) lint; end=$$(date +%s); \
	budget=$$(cat lint.budget); elapsed=$$((end-start)); \
	echo "lint took $${elapsed}s (budget $${budget}s, limit $$((budget*2))s)"; \
	if [ $$elapsed -gt $$((budget*2)) ]; then \
		echo "make lint exceeded 2x lint.budget; speed it up or justify raising the budget"; \
		exit 1; \
	fi

# Non-test Go lines per package: the size ROADMAP tracks (aim 2, item 4).
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./... | sed "s|^$$PWD|.|"); do \
		printf '%6d  %s\n' $$(cat /dev/null $$(ls $$d/*.go | grep -v _test.go) | wc -l) $$d; \
	done

# Each loc.budget row is '<dir> <lines>': the most non-test Go lines the
# tree under dir may hold. internal/h2fs is the paper's contribution and
# the package that kept growing, cmd/h2vet the linter that outgrew the
# code it checks, internal/baselines the comparison systems, which keep
# only what a figure measures. A PR that needs more room raises the row in
# the same diff and says why; one that shrinks a tree lowers it, so the
# ceilings ratchet down.
loc-check:
	@rc=0; while read -r dir budget; do \
		n=$$(find $$dir -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		echo "$$dir: $$n non-test lines (budget $$budget)"; \
		if [ $$n -gt $$budget ]; then \
			echo "$$dir grew past its loc.budget row; delete something or argue for the new ceiling"; \
			rc=1; \
		fi; \
	done < loc.budget; exit $$rc

test:
	$(GO) test ./...

# The four packages whose tests exercise real concurrency (pipelined
# subtree engine, replica fan-out, gossip, background maintenance) get a
# second -count=2 pass: reusing state across runs shakes out leaked
# goroutines and order-dependent schedules the first pass misses. The
# engine's queue — park while a task runs, exit when it drains — gets
# twenty more (< 5 s): its termination protocol is a schedule property. So
# does the descriptor cache's lock-free lookup racing growth, eviction,
# drops and restarts (< 5 s), and the cluster's gauges under four clients
# that meet only on the storage nodes (< 3 s).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/pipeline/ ./internal/cluster/ ./internal/h2fs/ ./internal/gossip/
	$(GO) test -race -count=20 ./internal/pipeline/
	$(GO) test -race -count=20 -run TestDescCacheLockFreeLookupStress ./internal/h2fs/
	$(GO) test -race -count=20 -run TestClusterConcurrentGauges ./internal/cluster/

# One testing.B benchmark per paper table/figure plus micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Fast CI benchmark: the deep-tree sequential-vs-pipelined comparison,
# emitting out/BENCH_subtree.json for the artifact gate.
bench-smoke:
	$(GO) run ./cmd/h2bench -exp subtree -json out

# Wall-clock hot-path microbenchmarks (codec, ring placement, merge,
# pathdb scan, cluster fan-out), emitting out/BENCH_hotpath.json. The
# allocs/op columns repeat exactly, and a row over its committed ceiling
# (internal/bench/hotpath.go) fails this target — it is the only guard on
# hot-path allocations; ns/op is informational. Not part of '-exp all':
# results/ must stay deterministic and this experiment measures the wall
# clock.
bench-wallclock:
	$(GO) run ./cmd/h2bench -exp hotpath -quick -json out

# The repo's scoreboard (BENCHMARK.json): seven workloads, end-to-end and
# per-layer metrics on both clocks, every output verified against a
# model. benchmark/ is its own module, so the root 'go test ./...' does
# not build it; benchmark-test runs its unit and contract tests.
benchmark:
	cd benchmark && $(GO) run . -seed 1

benchmark-test:
	cd benchmark && $(GO) test ./...

# Short fuzzing pass over the codecs, path cleaner, and h2vet's
# directive/flag parsers.
fuzz:
	$(GO) test -fuzz=FuzzDecodeNameRing -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzDecodeDir -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzNameRingDecodeCompat -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzAppendQuotedName -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzDirDecodeCompat -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzParsePatchKey -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzParseKey -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzDecodeShardManifest -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzParseExtentKey -fuzztime=10s ./internal/core/
	$(GO) test -fuzz='^FuzzClean$$' -fuzztime=10s ./internal/fsapi/
	$(GO) test -fuzz='^FuzzCleanCompat$$' -fuzztime=10s ./internal/fsapi/
	$(GO) test -fuzz=FuzzIgnoreDirective -fuzztime=10s ./cmd/h2vet/
	$(GO) test -fuzz=FuzzRulesFlag -fuzztime=10s ./cmd/h2vet/

# Regenerate the paper's evaluation (Table 1, Figures 7-15, RTT, headline,
# shootout, chaos, subtree, gcqueue, ablations) into results/. Every file
# it writes is deterministic — h2bench keeps its wall-clock timing lines on
# stderr, out of the tee'd transcript — so CI follows it with
# 'git diff --exit-code results/'.
experiments:
	$(GO) run ./cmd/h2bench -exp all -csv results | tee results/h2bench_full.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/gossipdemo
	$(GO) run ./examples/failover
	$(GO) run ./examples/shootout
	$(GO) run ./examples/mirror ./internal/core

tools:
	$(GO) build -o bin/h2cloudd ./cmd/h2cloudd
	$(GO) build -o bin/h2cli ./cmd/h2cli
	$(GO) build -o bin/h2bench ./cmd/h2bench
	$(GO) build -o bin/h2inspect ./cmd/h2inspect

clean:
	rm -rf bin
