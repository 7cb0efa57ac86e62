package harness

import (
	"runtime"
	"testing"

	"iocov/internal/coverage"
	"iocov/internal/raceflag"
)

// measureAllocBytes returns the heap bytes allocated while f runs.
// TotalAlloc is monotonic and process-global, so the figure includes every
// worker goroutine's allocations — exactly the number the -benchmem column
// of BenchmarkSuiteSerialVsParallel reports.
func measureAllocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParallelAllocRegression pins the fix for the parallel memory blowup:
// before the shared zero arena, vfs block reuse (now all-zero blocks with
// no memory behind them) and the pooled shard arena, RunParallel at
// workers=8 allocated ~4.8x the bytes of a serial run (2.4GB vs 496MB per
// op at benchmark scale). With per-worker state
// recycled, the parallel run must stay within 2x of serial — workers only
// add pipeline duplication (filesystems, kernels), not per-shard copies of
// the write buffer or analyzer churn.
//
// The race detector defeats the measurement: under -race sync.Pool drops a
// random quarter of its Puts by design, so the shard arena and read-buffer
// pools this test pins recycle only in part, and only the parallel run
// draws from the shard pool. The test therefore runs without
// -race only, like the AllocsPerRun pins.
func TestParallelAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement at benchmark scale")
	}
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	const (
		scale   = 0.02
		seed    = 42
		workers = 8
		trials  = 3
	)
	opts := coverage.DefaultOptions()
	run := func(workers int) {
		var err error
		if workers == 0 {
			_, err = Run(SuiteXfstests, scale, seed)
		} else {
			_, err = RunParallel(SuiteXfstests, scale, seed, workers, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up fills the shard arena and read-buffer pools so the measurement
	// sees the steady state the benchmarks report, not first-run pool misses.
	run(0)
	run(workers)

	// GC can evict sync.Pool contents between trials, so a single trial can
	// overcount; the minimum over a few trials is the steady-state floor.
	minBytes := func(workers int) uint64 {
		best := ^uint64(0)
		for i := 0; i < trials; i++ {
			if b := measureAllocBytes(func() { run(workers) }); b < best {
				best = b
			}
		}
		return best
	}
	serial := minBytes(0)
	parallel := minBytes(workers)
	t.Logf("serial: %d MB, workers=%d: %d MB", serial>>20, workers, parallel>>20)
	if serial == 0 {
		t.Fatal("serial run allocated nothing; measurement broken")
	}
	if ratio := float64(parallel) / float64(serial); ratio > 2.0 {
		t.Errorf("workers=%d allocates %.2fx the bytes of serial (%d MB vs %d MB); parallel alloc blowup is back",
			workers, ratio, parallel>>20, serial>>20)
	}
}
