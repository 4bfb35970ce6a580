package bench

import (
	"fmt"
	"slices"
	"testing"
)

// with returns a copy of res whose row i has value in the named column.
func with(res Result, i int, column, value string) Result {
	rows := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		rows[r] = slices.Clone(row)
	}
	rows[i][slices.Index(res.Header, column)] = value
	res.Rows = rows
	return res
}

// without returns a copy of res with row i dropped.
func without(res Result, i int) Result {
	res.Rows = slices.Delete(slices.Clone(res.Rows), i, i+1)
	return res
}

// Each gated experiment's claim check passes a table that holds its claims
// and returns an error once a single cell or row breaks one of them.
func TestClaimChecksRejectViolatingRows(t *testing.T) {
	chaos := Result{
		Header: []string{"fault rate", "acked", "retries", "degraded reads", "lost acked"},
		Rows: [][]string{
			{"0.00", "150", "0", "0", "0"},
			{"0.10", "140", "12", "4", "0"},
			{"0.30", "80", "900", "0", "0"},
		},
	}
	subtree := Result{
		Header: []string{"operation", "sequential (ms)", "pipelined (ms)", "speedup"},
		Rows: [][]string{
			{"copy", "900.0", "100.0", "9.0x"},
			{"repair", "400.0", "200.0", "2.0x"},
			{"gc", "800.0", "100.0", "8.0x"},
		},
	}
	gcqueue := Result{
		Header: []string{"files", "rmdir (ms)", "crashed drain", "replay drain (ms)", "orphans"},
		Rows: [][]string{
			{"8", "95.01", "yes", "40.00", "0"},
			{"128", "95.01", "yes", "90.00", "0"},
		},
	}
	dirshard := Result{
		Header: []string{
			"m", "patch bytes (mono)", "patch bytes (sharded)", "flush read bytes (mono)",
			"flush read bytes (sharded)", "flush GETs (mono)", "flush GETs (sharded)", "crash orphans",
		},
		Rows: [][]string{
			{"64000", "1268967", "79388", "0", "0", "0", "0", "0"},
			{"500000", "10388968", "649406", "0", "0", "0", "0", "0"},
		},
	}
	hotpath := Result{Header: []string{"path", "allocs/op", "ceiling", "status"}}
	for _, path := range []string{"placement/partition", "storemw/get", "http/stat-depth-16", "http/write-file"} {
		hotpath.Rows = append(hotpath.Rows, []string{path, "0", "0", "ok"})
	}
	for i := range 6 {
		hotpath.Rows = append(hotpath.Rows, []string{fmt.Sprintf("other/%d", i), "3", "3", "ok"})
	}

	type violation struct {
		name string
		res  Result
	}
	for _, tc := range []struct {
		name   string
		check  func(Result) error
		holds  Result
		breaks []violation
	}{
		{"chaos", checkChaos, chaos, []violation{
			{"no rows", Result{Header: chaos.Header}},
			{"lost acked", with(chaos, 0, "lost acked", "1")},
			{"nothing acked", with(chaos, 0, "acked", "0")},
			{"no retries at 10%", with(chaos, 1, "retries", "0")},
			{"no degraded reads under faults", with(chaos, 1, "degraded reads", "0")},
		}},
		{"subtree", checkSubtree, subtree, []violation{
			{"under 2x", with(subtree, 1, "pipelined (ms)", "201.0")},
			{"row missing", without(subtree, 2)},
			{"unknown operation", with(subtree, 2, "operation", "scrub")},
		}},
		{"gcqueue", checkGCQueue, gcqueue, []violation{
			{"one row", without(gcqueue, 1)},
			{"rmdir grows", with(gcqueue, 1, "rmdir (ms)", "95.02")},
			{"drain not crashed", with(gcqueue, 0, "crashed drain", "no")},
			{"orphans", with(gcqueue, 1, "orphans", "2")},
			{"lag flat", with(gcqueue, 1, "replay drain (ms)", "40.00")},
		}},
		{"dirshard", checkDirShard, dirshard, []violation{
			{"one row", without(dirshard, 0)},
			{"crash orphans", with(dirshard, 0, "crash orphans", "1")},
			{"no m=500000 row", with(dirshard, 1, "m", "256000")},
			{"under 4x", with(dirshard, 1, "patch bytes (sharded)", "2597243")},
			{"monolithic flush reads", with(dirshard, 1, "flush read bytes (mono)", "10")},
			{"monolithic flush GETs", with(dirshard, 1, "flush GETs (mono)", "1")},
			{"sharded flush reads the manifest", with(dirshard, 1, "flush read bytes (sharded)", "24")},
			{"sharded flush GETs", with(dirshard, 1, "flush GETs (sharded)", "1")},
		}},
		{"hotpath", checkHotPath, hotpath, []violation{
			{"over ceiling", with(hotpath, 5, "allocs/op", "4")},
			{"nine rows", without(hotpath, 9)},
			{"no storemw/get", with(hotpath, 1, "path", "other/a")},
			{"no http/stat-depth-16", with(hotpath, 2, "path", "other/b")},
			{"no http/write-file", with(hotpath, 3, "path", "other/c")},
			{"placement allocates", with(with(hotpath, 0, "ceiling", "1"), 0, "allocs/op", "1")},
		}},
	} {
		if err := tc.check(tc.holds); err != nil {
			t.Errorf("%s: a table that holds its claims fails: %v", tc.name, err)
		}
		for _, v := range tc.breaks {
			if err := tc.check(v.res); err == nil {
				t.Errorf("%s: %s: check passed", tc.name, v.name)
			}
		}
	}
}
