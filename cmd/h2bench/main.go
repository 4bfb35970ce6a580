// Command h2bench regenerates the paper's evaluation tables and figures
// (Table 1, Figures 7–15, the RTT analysis, the §1 headline numbers) and
// the design-choice ablations.
//
// Usage:
//
//	h2bench -exp all            # run everything at paper scale
//	h2bench -exp fig7,fig13     # selected experiments
//	h2bench -exp fig10 -quick   # reduced sweeps for a fast pass
//	h2bench -exp fig9 -csv out/ # also write CSV series
//	h2bench -exp chaos -json out/ # also write BENCH_<exp>.json artifacts
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/h2cloud/h2cloud/internal/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiments, or 'all'; available: "+strings.Join(bench.Experiments, ","))
		quick = flag.Bool("quick", false, "reduced sweep sizes (seconds instead of minutes)")
		csv   = flag.String("csv", "", "directory to write per-experiment CSV files into")
		jsonD = flag.String("json", "", "directory to write per-experiment BENCH_<exp>.json files into")
		list  = flag.Bool("list", false, "list available experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range bench.Experiments {
			fmt.Println(name)
		}
		return
	}
	names := bench.Experiments
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			fatal(err)
		}
	}
	if *jsonD != "" {
		if err := os.MkdirAll(*jsonD, 0o755); err != nil {
			fatal(err)
		}
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		start := time.Now()
		res, err := bench.Run(name, *quick)
		if err != nil && len(res.Rows) == 0 {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Print(bench.FormatText(res))
		fmt.Println()
		// Wall time goes to stderr: stdout is a deterministic transcript
		// (make experiments tees it into results/).
		fmt.Fprintf(os.Stderr, "  (%s generated in %v)\n", name, time.Since(start).Round(time.Millisecond))
		if *csv != "" {
			path := filepath.Join(*csv, res.Experiment+".csv")
			if err := os.WriteFile(path, []byte(bench.FormatCSV(res)), 0o644); err != nil {
				fatal(err)
			}
		}
		if *jsonD != "" {
			path := filepath.Join(*jsonD, "BENCH_"+res.Experiment+".json")
			if err := os.WriteFile(path, []byte(bench.FormatJSON(res)), 0o644); err != nil {
				fatal(err)
			}
		}
		// A gated experiment (hotpath) fails after its table and artifact
		// are out, so the run still shows which row went over.
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "h2bench:", err)
	os.Exit(1)
}
