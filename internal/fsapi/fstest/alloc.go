package fstest

import "runtime"

// AllocBytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes one call of fn allocates, after a warm-up call, on one P.
func AllocBytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
