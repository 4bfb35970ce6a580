// Command benchmark is the repository's benchmark: one command that
// generates seeded inputs, runs seven named workloads against the
// unmodified program, verifies its outputs, and prints every end-to-end
// and per-layer metric by name. See README.md.
//
//	go run . -seed 1                        all workloads, all metrics
//	go run . -seed 1 -aa                    two sets, compared against the bounds
//	go run . -workload sync_mix -seed 1 -seconds 6 -trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload, the
// result as one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print one JSON result line")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", refSeconds, "wall time the measured rounds of one workload are sized for")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		aa       = flag.Bool("aa", false, "run two sets and compare them against the end-to-end bounds")
		out      = flag.String("out", "", "also write all results as JSON to this file")
	)
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// Two closed-loop clients on the two cores the reference host has.
	runtime.GOMAXPROCS(numClients)

	var err error
	switch {
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == 1)
	case *aa:
		err = runAA(*seed, *seconds)
	default:
		err = runAll(*seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// driverLine is the result object the benchmark driver reads.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(name string, seed int64, seconds int, layers bool) error {
	s := specByName(name)
	if s == nil {
		return errorf("unknown workload %q", name)
	}
	rounds := measuredRounds
	if layers {
		rounds = layerRounds
	}
	r, err := runWorkload(s, seed, seconds, rounds, layers)
	if err != nil {
		return err
	}
	printResult(os.Stderr, r)
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	defs, values := endToEnd, r.EndToEnd
	if layers {
		defs, values = perLayer(), r.PerLayer
	}
	for _, d := range defs {
		line.Metrics[d.Name] = driverMetric{values[d.Name].V, d.Unit}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		return err
	}
	if r.Failed > 0 {
		return errorf("%s: %d of %d checks failed", name, r.Failed, r.Attempted)
	}
	return nil
}

// host identifies where a set of numbers was measured.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(rev))
	}
	return h
}

// runSet runs every workload once.
func runSet(seed int64, seconds int, layers bool) (map[string]*result, error) {
	results := make(map[string]*result, len(specs))
	for _, s := range specs {
		r, err := runWorkload(s, seed, seconds, measuredRounds, layers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		printResult(os.Stdout, r)
		results[s.name] = r
	}
	return results, nil
}

func failures(results map[string]*result) int64 {
	var failed int64
	for _, r := range results {
		failed += r.Failed
	}
	return failed
}

func runAll(seed int64, seconds int, out string) error {
	fp := fingerprint()
	fmt.Printf("host: %s, nproc=%d, GOMAXPROCS=%d, %s, commit %s\n", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.Commit)
	results, err := runSet(seed, seconds, true)
	if err != nil {
		return err
	}
	cross := crossGuards(results)
	for _, n := range cross {
		fmt.Println("FAILED", n)
	}
	if out != "" {
		doc := struct {
			Host      host      `json:"host"`
			Workloads []*result `json:"workloads"`
		}{Host: fp}
		for _, s := range specs {
			doc.Workloads = append(doc.Workloads, results[s.name])
		}
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if n := failures(results) + int64(len(cross)); n > 0 {
		return errorf("%d checks failed", n)
	}
	return nil
}

// runAA runs the benchmark twice on the same code and holds the
// difference of every end-to-end metric against its own bound: a metric
// that cannot hold its bound between identical runs cannot gate a change.
func runAA(seed int64, seconds int) error {
	a, err := runSet(seed, seconds, false)
	if err != nil {
		return err
	}
	b, err := runSet(seed, seconds, false)
	if err != nil {
		return err
	}
	breaches := 0
	fmt.Printf("%-14s %-28s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, s := range specs {
		for _, d := range endToEnd {
			x, y := a[s.name].EndToEnd[d.Name].V, b[s.name].EndToEnd[d.Name].V
			worse := ratio(y-x, x)
			if d.Better == "higher" {
				worse = ratio(x-y, x)
			}
			mark := ""
			if worse > d.Bound || -worse > d.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-14s %-28s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", s.name, d.Name, x, y, 100*worse, 100*d.Bound, mark)
		}
	}
	if n := failures(a) + failures(b); n > 0 {
		return errorf("%d checks failed", n)
	}
	if breaches > 0 {
		return errorf("%d metrics moved by more than their bound between identical runs", breaches)
	}
	return nil
}
