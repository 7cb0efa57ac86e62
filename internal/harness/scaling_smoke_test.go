package harness

import (
	"os"
	"runtime"
	"testing"
	"time"

	"iocov/internal/coverage"
)

// TestParallelScalingSmoke is the CI scaling assertion, run by
// scripts/smoke_parallel.sh and gated behind IOCOV_SCALING_SMOKE=1 because
// wall-clock comparisons are meaningless under the race detector or a
// loaded laptop. It checks that RunParallel is never a wall-clock
// pessimization, with a CPU-aware bar:
//
//   - on >= 4 CPUs, workers=4 must actually beat serial — real hardware
//     parallelism must show up as real speedup;
//   - on fewer CPUs (1-core CI runners), genuine scaling is physically
//     impossible, so the assertion degrades to "goroutine scheduling and
//     the merge tree cost at most 35% over serial".
//
// Both sides take the best of three runs: the pools warm up on the first
// and the minimum is the least noisy wall-clock estimator.
func TestParallelScalingSmoke(t *testing.T) {
	if os.Getenv("IOCOV_SCALING_SMOKE") == "" {
		t.Skip("set IOCOV_SCALING_SMOKE=1 to run the wall-clock scaling smoke")
	}
	const (
		scale   = 0.05
		seed    = 7
		workers = 4
		trials  = 3
	)
	bestOf := func(f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < trials; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	// Warm-up: fill the shard arena and read-buffer pools once before timing.
	if _, err := RunParallel(SuiteXfstests, scale, seed, workers, coverage.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	serial := bestOf(func() {
		if _, err := Run(SuiteXfstests, scale, seed); err != nil {
			t.Fatal(err)
		}
	})
	parallel := bestOf(func() {
		if _, err := RunParallel(SuiteXfstests, scale, seed, workers, coverage.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	cpus := runtime.GOMAXPROCS(0)
	t.Logf("GOMAXPROCS=%d serial=%v workers=%d=%v (%.2fx)",
		cpus, serial, workers, parallel, float64(parallel)/float64(serial))
	if cpus >= workers {
		if parallel >= serial {
			t.Errorf("workers=%d (%v) did not beat serial (%v) on %d CPUs", workers, parallel, serial, cpus)
		}
		return
	}
	if float64(parallel) > 1.35*float64(serial) {
		t.Errorf("workers=%d (%v) is more than 1.35x serial (%v) on %d CPU(s); parallel overhead regressed",
			workers, parallel, serial, cpus)
	}
}
