package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// explainTexts holds the long-form documentation printed by
// `h2vet -explain <rule>`: what the rule computes, why the repo cares,
// and how to satisfy or suppress it. Keep one entry per analyzer; the
// TestExplainCoversAllRules golden enforces the invariant.
var explainTexts = map[string]string{
	"virtualtime": `virtualtime keeps the simulator deterministic: internal/ packages must not
read the wall clock (time.Now/Since/Sleep). All elapsed time flows through
internal/vclock or an injected clock function, so a run's timing is a pure
function of its inputs. Fix by threading a clock; suppress a deliberate
seam with //h2vet:ignore virtualtime <reason>.`,

	"mapiter": `mapiter flags order-sensitive uses of Go map iteration: appending to a
slice that is later encoded/hashed/broadcast, writing to output, or
sending on a channel directly from a range over a map. Map order is
random per run, so these leak nondeterminism into results. Fix by
collecting keys and sorting before use.`,

	"lockcheck": `lockcheck enforces the repo's narrow-span locking idiom: a mu.Lock()
pairs with defer mu.Unlock() in the same function, and no handler,
callback, or Broadcast-like call runs while the lock is held (that is
how deadlocks and re-entrancy bugs start). Restructure so user code runs
outside the critical section.`,

	"droppederr": `droppederr requires the error results of internal/core Decode*/Encode*
and objstore/cluster Put/Get/Delete to be consumed. A dropped decode
error turns data corruption into silent divergence between replicas.
Handle it, return it, or explain the best-effort case with
//h2vet:ignore droppederr <reason>.`,

	"backoffcheck": `backoffcheck forbids wall-clock waits (time.Sleep/After/timers) inside
loops in internal/ packages: retry backoff must be charged to
internal/vclock so simulated time stays decoupled from real time and a
million-account run finishes in seconds. Replace the sleep with a
vclock charge.`,

	"costcheck": `costcheck is the cost-model audit: every objstore.Store implementation
must reach vclock.Charge on its success paths (uncharged operations make
the simulator lie about service time), and wrappers that delegate to an
inner Store must not double-charge. The call graph decides reachability,
so helpers can do the charging.`,

	"lockorder": `lockorder builds the static lock-acquisition graph — which mutex classes
are acquired while which are held, propagated through the call graph —
and requires it to be acyclic with no same-mutex re-entry. A cycle is a
latent deadlock that only needs the right interleaving. Fix by imposing
a global acquisition order.`,

	"sentinelcheck": `sentinelcheck guards the typed Err* sentinels: compare with errors.Is
(never == or string matching), wrap with %w so the chain survives, and
keep every sentinel that crosses internal/httpapi present in both the
server status table and the client reconstruction table, so errors
round-trip the wire intact.`,

	"guardcheck": `guardcheck is static race detection tuned to this repo's lock idioms.
For every struct with a named sync.Mutex/RWMutex field it infers a
field -> guard map: a sibling field whose access sites hold the same
mutex class at a clear majority of sites (>= 2 sites and >= 75%) is
considered guarded by it, and an explicit

    //h2vet:guardedby <mutex>

annotation on the field declaration seeds the map directly (a wrong
mutex name is itself a finding). Locksets propagate through the call
graph — a *Locked helper that never locks inherits the intersection of
its callers' held sets — and code inside a go-launched function literal
starts from the empty lockset, because the spawner's locks are not held
on the new goroutine. A diagnostic fires for every access to a guarded
field reachable from some go statement without the guard held: exactly
the accesses a concurrent traffic driver can race on.

Run h2vet -explain guardcheck -pkg <path> [patterns] to print the
inferred guard table.`,

	"leakcheck": `leakcheck finds go statements whose goroutine has no bounded exit. The
spawned function (named or literal) and its transitive callees are
scanned for loops that can never be left: an unconditional for with no
return/goto and no break that targets the loop, or a for-range over a
time.Ticker channel (tickers are never closed, so the range never ends).
A break inside a nested select/switch exits that construct, not the
loop — the classic pitfall gets its own message. Bound the goroutine
with a <-ctx.Done() return, a closed-channel exit, or a WaitGroup-joined
completion; a deliberate process-lifetime daemon can carry
//h2vet:ignore leakcheck <reason> on its go statement.`,

	"alloccheck": `alloccheck budgets heap allocations on the hot paths: everything
reachable from an objstore.Store or objstore.Batcher primitive, from the
NameRing codec/merge routines (core.Encode*/Decode*/Merged and the
NameRing AppendAll/All/Live/Range/Merge methods backing the pooled
codecs), from the ring placement methods
(Ring.Partition/Devices/PartitionDevices, their *Append variants, and
the cached DeviceIDs), plus functions annotated //h2vet:hotpath. Inside
that set it flags the per-op allocation patterns that cap the bench
sweeps: fmt.Sprintf/Errorf off the error path, append in a loop growing
a slice declared without capacity, string <-> []byte round-trip
conversions, and map allocations or composite literals inside loops.
Pre-size, hoist, or reuse — sync.Pool scratch taken at function entry
and returned before exit is the blessed idiom for per-call working sets.
Error paths (branches and returns that produce an error) are exempt.

Run h2vet -explain alloccheck -pkg <path> [patterns] to print the
computed hot-path set.`,

	"poolcheck": `poolcheck turns the sync.Pool scratch idiom into a checked contract,
using the hand-rolled CFG + def-use pass (dataflow.go) in place of SSA.
For every value bound from a pool.Get() in a function scope:

  - a matching Put on the same pool must be reached on every non-error
    path: a deferred Put covers all paths; otherwise each CFG path from
    the Get to a success return (or to falling off the end) must pass a
    Put statement. Paths returning a non-nil error and paths that die in
    panic/Fatal are exempt — losing a pool entry there is harmless;
  - when the pooled value holds pointers (slices/maps/structs containing
    strings, pointers, ...) it must be cleared between Get and Put —
    builtin clear on the scratch or an alias, or a Reset method — so a
    pooled buffer cannot pin references against the GC (the PR 8 codec
    idiom: clear(tuples); *sp = tuples[:0]; pool.Put(sp));
  - no alias of the scratch may escape: returning it, storing it to a
    field or package variable, sending it on a channel, or handing it to
    a goroutine lets the pool recycle memory that is still referenced,
    and any use after a non-deferred Put is a use-after-free against the
    pool. Aliases are tracked through assignments, slicing, indexing,
    type assertions, and append-like calls (a call result of the same
    type as an aliased argument, e.g. r.AppendAll((*sp)[:0])).

Cross-pool Puts (scratch from pool A returned to pool B) and Get results
never bound to a variable are findings too. Suppress a deliberate
ownership transfer with //h2vet:ignore poolcheck <reason>.`,

	"ctxcheck": `ctxcheck enforces context propagation down the I/O layers: cancellation
must flow from the driver (cmd/) through every objstore.Store/Batcher
primitive call, or an aborted run keeps issuing simulated I/O. Inside
internal/ packages (test files excluded):

  - context.Background()/TODO() are findings: request-scoped code derives
    its context from the caller's parameter; fresh roots belong to
    drivers. Deliberate harness roots (bench, fstest scaffolds) carry
    //h2vet:ignore ctxcheck <reason>;
  - context.WithoutCancel must declare itself a durable bracket with
    //h2vet:durable <reason> on its line or the line above. The GC
    intent enqueue, the eager-GC reclamation after a committed
    tombstone, and the shutdown flush are the intended uses: work that
    must finish once started. An undeclared detach is a finding;
  - a Store/Batcher primitive call whose ctx argument is a nil literal
    or a package-level context variable is a finding; derivation chains
    (WithTimeout/WithCancel/WithValue/...) are traced to their root
    through local assignments, so only the root is judged.`,

	"atomiccheck": `atomiccheck enforces atomic-access consistency: a struct field accessed
through the function-style sync/atomic API anywhere in the program
(atomic.AddInt64(&s.n, 1), ...) must be accessed atomically everywhere
that goroutine-reachable code touches it. A plain read or write of the
same field inside a go-launched function literal, or in any function the
RTA call graph reaches from a go statement, races with the atomic side —
the atomic half orders nothing for the plain half. The finding names the
atomic witness, the go statement, and the typed atomic (atomic.Int64,
atomic.Uint64, ...) whose method set makes the race unrepresentable; the
repo itself uses only typed atomics, and this rule keeps it that way.
Purely sequential plain access (constructor initialization before the
struct is shared) is exempt.`,

	"callgraph": `callgraph is not a rule but the shared analysis substrate: h2vet builds
one call graph over the typed module and every whole-program rule
(costcheck, lockorder, guardcheck, leakcheck, alloccheck, atomiccheck)
consumes it. Call sites through interfaces are first expanded CHA-style
(every implementing type's method is a possible callee), then refined
with Rapid Type Analysis: an interface edge to a concrete method
survives only if its receiver type is actually instantiated — composite
literal, conversion, new(T), var declaration — in code reachable from
the roots (package main functions, init, and the exported API, which is
how the test packages enter). Uninstantiated implementations keep their
declared-body analysis but receive no interface edges, so a golden-test
stub or a retired baseline cannot widen lockorder cycles, leak
reachability, or costcheck delegation onto live code.

Run h2vet -explain callgraph [patterns] to print the CHA vs RTA edge
counts and the per-rule finding delta measured on this module.`,

	"deadignore": `deadignore reports //h2vet:ignore directives with no effect: the rule
name is a typo, or no diagnostic of that rule fires on the directive's
line or the line below. A stale suppression is how the bug pattern it
once excused comes back unnoticed. Delete the directive; a deliberately
kept one (e.g. guarding flaky generated code) can be excused with an
explicit //h2vet:ignore deadignore <reason> — a blanket "all" does not
apply to deadignore itself. When -rules restricts the analyzer set,
directives for rules that did not run are given the benefit of the
doubt.`,
}

// explain prints the long-form doc for one rule, plus the computed
// tables for the rules that have them. prog may be nil when loading
// failed or was skipped; the doc still prints. "callgraph" is a
// pseudo-rule documenting the shared RTA call graph.
func explain(w io.Writer, rule string, prog *Program, pkgFilter string) {
	doc := explainTexts[rule]
	if a := analyzerByName(rule); a != nil {
		fmt.Fprintf(w, "%s — %s\n\n%s\n", rule, a.Doc, doc)
	} else {
		fmt.Fprintf(w, "%s\n\n%s\n", rule, doc)
	}
	if prog == nil {
		return
	}
	switch rule {
	case "guardcheck":
		explainGuards(w, prog, pkgFilter)
	case "alloccheck":
		explainHotSet(w, prog, pkgFilter)
	case "callgraph":
		explainCallgraph(w, prog)
	}
}

// explainCallgraph builds the call graph twice — CHA expansion only, and
// with the RTA refinement the analyzers actually use — and reports the
// edge-count delta plus the per-rule finding delta, so the precision the
// refinement buys stays measured instead of assumed.
func explainCallgraph(w io.Writer, prog *Program) {
	prog.graphOnce.Do(func() {}) // take ownership of the cached graph slot
	cha := buildCallGraphMode(prog, true)
	rta := buildCallGraphMode(prog, false)

	s := rta.stats
	fmt.Fprintf(w, "\ncall graph (RTA over the shared typed universe):\n")
	fmt.Fprintf(w, "  functions            %6d (%d roots: main, init, exported API; %d reachable)\n", s.funcs, s.roots, s.reachable)
	fmt.Fprintf(w, "  named concrete types %6d (%d instantiated in reachable code)\n", s.named, s.instantiated)
	fmt.Fprintf(w, "  interface call sites %6d\n", s.ifaceSites)
	fmt.Fprintf(w, "  edges (CHA)          %6d (%d through interfaces)\n", cha.stats.chaEdges, cha.stats.chaIfaceEdges)
	fmt.Fprintf(w, "  edges (RTA)          %6d (%d through interfaces)\n", s.rtaEdges, s.rtaIfaceEdges)
	if cha.stats.chaEdges > 0 {
		dropped := cha.stats.chaEdges - s.rtaEdges
		fmt.Fprintf(w, "  pruned               %6d spurious edges (%.1f%% of CHA, %.1f%% of interface edges)\n",
			dropped, 100*float64(dropped)/float64(cha.stats.chaEdges),
			100*float64(cha.stats.chaIfaceEdges-s.rtaIfaceEdges)/float64(max(1, cha.stats.chaIfaceEdges)))
	}

	countFindings := func(g *callGraph) map[string]int {
		prog.graph = g
		diags, _ := runProgramAnalyzers(prog, allAnalyzers())
		m := map[string]int{}
		for _, d := range diags {
			m[d.Rule]++
		}
		return m
	}
	chaCounts := countFindings(cha)
	rtaCounts := countFindings(rta)
	prog.graph = rta

	rules := map[string]bool{}
	for r := range chaCounts {
		rules[r] = true
	}
	for r := range rtaCounts {
		rules[r] = true
	}
	names := make([]string, 0, len(rules))
	for r := range rules {
		names = append(names, r)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\nfinding precision (whole-program rules, ignores applied):\n")
	if len(names) == 0 {
		fmt.Fprintf(w, "  no findings under either graph — the RTA pruning introduces none and the repo is clean\n")
		return
	}
	for _, r := range names {
		delta := rtaCounts[r] - chaCounts[r]
		fmt.Fprintf(w, "  %-13s CHA %3d  RTA %3d  (%+d)\n", r, chaCounts[r], rtaCounts[r], delta)
	}
}

func analyzerByName(name string) *Analyzer {
	for _, a := range allAnalyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// matchesPkg filters by package path: empty matches everything,
// otherwise the path must end in or contain the filter.
func matchesPkg(path, filter string) bool {
	if filter == "" {
		return true
	}
	return path == filter || strings.HasSuffix(path, "/"+filter) || strings.Contains(path, filter)
}

// explainGuards prints the inferred/annotated guard table.
func explainGuards(w io.Writer, prog *Program, pkgFilter string) {
	ga := analyzeGuards(prog)
	fields := make([]*guardFact, 0, len(ga.facts))
	for _, fact := range ga.facts {
		if fact.guard == nil {
			continue
		}
		pkg := ""
		if fact.field.Pkg() != nil {
			pkg = fact.field.Pkg().Path()
		}
		if !matchesPkg(pkg, pkgFilter) {
			continue
		}
		fields = append(fields, fact)
	}
	sort.Slice(fields, func(i, j int) bool {
		return ga.fieldName(fields[i].field) < ga.fieldName(fields[j].field)
	})
	fmt.Fprintf(w, "\nguard table (%d guarded fields):\n", len(fields))
	for _, fact := range fields {
		origin := fmt.Sprintf("inferred: held at %d of %d sites", fact.guarded, fact.total)
		if fact.annotated {
			origin = "//h2vet:guardedby annotation"
		}
		fmt.Fprintf(w, "  %-40s guarded by %-20s (%s)\n",
			ga.fieldName(fact.field), fact.guard.Name(), origin)
	}
}

// explainHotSet prints the hot-path function set and why each member is
// in it.
func explainHotSet(w io.Writer, prog *Program, pkgFilter string) {
	hs := computeHotSet(prog)
	type row struct{ name, reason string }
	var rows []row
	for _, fn := range hs.order {
		pkg := ""
		if fn.Pkg() != nil {
			pkg = fn.Pkg().Path()
		}
		if !matchesPkg(pkg, pkgFilter) {
			continue
		}
		rows = append(rows, row{shortName(fn), hs.reason[fn]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Fprintf(w, "\nhot-path set (%d functions):\n", len(rows))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-50s %s\n", r.name, r.reason)
	}
}
