// Shootout: run the same synthetic user filesystem and operation trace
// over every Table 1 data structure — Compressed Snapshot, CAS, plain
// Consistent Hash, Swift's CH+DB, Single Index Server, Static Partition,
// Dynamic Partition and H2Cloud — and print their simulated operation
// times side by side.
//
// This is the paper's Table 1 brought to life on a realistic mixed
// workload instead of single-operation microbenchmarks: the full-scale
// `h2bench -exp shootout` table (one light user, a 500-op trace).
package main

import (
	"fmt"
	"log"

	"github.com/h2cloud/h2cloud/internal/bench"
)

func main() {
	res, err := bench.Shootout(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatText(res))
}
