// Package harness wires the evaluation pipeline together: fresh filesystem
// + kernel + mount filter + analyzer, with one of the simulated test suites
// on top. The figures command, the benchmarks, and the examples all drive
// their runs through it.
package harness

import (
	"fmt"
	"runtime"
	"sync"

	"iocov/internal/coverage"
	"iocov/internal/kernel"
	"iocov/internal/suites/crashmonkey"
	"iocov/internal/suites/xfstests"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

// MountPattern is the evaluation's trace-filter regexp: the /mnt/test
// mount point both simulated suites use.
const MountPattern = `^/mnt/test(/|$)`

// Suite names.
const (
	SuiteXfstests    = "xfstests"
	SuiteCrashMonkey = "crashmonkey"
)

// Run executes one named suite at the given scale into a fresh pipeline and
// returns the analyzer. extraSinks, if any, also receive the filtered
// events (e.g. a trace writer).
func Run(suite string, scale float64, seed int64, extraSinks ...trace.Sink) (*coverage.Analyzer, error) {
	return RunWithOptions(suite, scale, seed, coverage.DefaultOptions(), extraSinks...)
}

// RunWithOptions is Run with explicit analyzer options (extended syscall
// table, combination tracking, identifier tracking).
func RunWithOptions(suite string, scale float64, seed int64, opts coverage.Options, extraSinks ...trace.Sink) (*coverage.Analyzer, error) {
	return runShard(suite, scale, seed, 0, 1, opts, extraSinks...)
}

// mountProto compiles the one MountPattern filter on first use; shards clone
// fresh per-run filter state from it instead of recompiling the regexp.
var mountProto = sync.OnceValues(func() (*trace.Filter, error) { return trace.NewFilter(MountPattern) })

func mountFilter() (*trace.Filter, error) {
	f, err := mountProto()
	if err != nil {
		return nil, err
	}
	return f.Fresh(), nil
}

// shardPool is the worker arena RunParallel (and the evolve loop's
// candidate evaluation) draws analyzers from: the analyzer is the expensive
// per-shard state (counter maps, dense slices, compiled dispatch), and
// coverage.Analyzer.Reset guarantees a recycled one is observationally
// identical to a fresh one.
var shardPool sync.Pool

// AcquireAnalyzer returns an analyzer for opts from the worker arena,
// reusing a pooled one when its options match (options are part of an
// analyzer's identity; a pooled analyzer built for other options is
// discarded rather than reused).
func AcquireAnalyzer(opts coverage.Options) *coverage.Analyzer {
	if an, ok := shardPool.Get().(*coverage.Analyzer); ok && an.Options() == opts.WithDefaults() {
		return an
	}
	return coverage.NewAnalyzer(opts)
}

// ReleaseAnalyzer resets an analyzer and parks it in the worker arena for
// the next acquisition. The caller must not touch it afterwards.
func ReleaseAnalyzer(an *coverage.Analyzer) {
	if an == nil {
		return
	}
	an.Reset()
	shardPool.Put(an)
}

// MergeTree folds a slice of analyzers pairwise in a reduction tree: at
// stride s, analyzer lo absorbs analyzer lo+s, all pairs of a round running
// concurrently, log2(n) rounds instead of a serial n-long fold under one
// accumulator. Counts are purely additive, so the tree's fold order does
// not change the merged snapshot — ans[0] ends up byte-identical to a
// serial in-order fold. Returns ans[0]; the other analyzers are left merged
// -from but otherwise untouched (callers typically ReleaseAnalyzer them).
func MergeTree(ans []*coverage.Analyzer) (*coverage.Analyzer, error) {
	if len(ans) == 0 {
		return nil, fmt.Errorf("harness: MergeTree needs at least one analyzer")
	}
	errs := make([]error, len(ans))
	for stride := 1; stride < len(ans); stride *= 2 {
		var wg sync.WaitGroup
		for lo := 0; lo+stride < len(ans); lo += 2 * stride {
			wg.Add(1)
			go func(dst, src int) {
				defer wg.Done()
				errs[dst] = ans[dst].Merge(ans[src])
			}(lo, lo+stride)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return ans[0], nil
}

// runShard executes one shard of a suite run on its own fresh pipeline
// (filesystem, kernel, mount filter, analyzer). Shard 0 of 1 is a complete
// serial run.
//
// Events stream: each kernel emission flows through the FilteringSink into
// the analyzer (and any extra sinks) as it happens, so a shard never
// materializes an intermediate []trace.Event and peak memory stays flat in
// the event count regardless of scale.
func runShard(suite string, scale float64, seed int64, shard, shards int, opts coverage.Options, extraSinks ...trace.Sink) (*coverage.Analyzer, error) {
	return runShardInto(coverage.NewAnalyzer(opts), suite, scale, seed, shard, shards, extraSinks...)
}

// runShardInto is runShard against a caller-owned analyzer (fresh or Reset;
// the worker arena hands in recycled ones).
func runShardInto(an *coverage.Analyzer, suite string, scale float64, seed int64, shard, shards int, extraSinks ...trace.Sink) (*coverage.Analyzer, error) {
	filter, err := mountFilter()
	if err != nil {
		return nil, err
	}
	var next trace.Sink = an
	if len(extraSinks) > 0 {
		next = append(trace.MultiSink{an}, extraSinks...)
	}
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{
		Sink: &trace.FilteringSink{F: filter, Next: next},
	})
	switch suite {
	case SuiteXfstests:
		_, err = xfstests.Run(k, xfstests.Config{Scale: scale, Seed: seed, Noise: true, Shard: shard, Shards: shards})
	case SuiteCrashMonkey:
		_, err = crashmonkey.Run(k, crashmonkey.Config{Scale: scale, Seed: seed, Noise: true, Shard: shard, Shards: shards})
	default:
		return nil, fmt.Errorf("harness: unknown suite %q", suite)
	}
	if err != nil {
		return nil, err
	}
	return an, nil
}

// RunParallel executes one named suite across a worker pool: the run is
// split into `workers` deterministic shards, each driving its own pipeline
// in a goroutine over a recycled per-worker analyzer, and the shard
// analyzers are folded pairwise in a reduction tree. The suites decompose
// into work items with seed-derived per-item RNGs, so the union of
// generated workloads — and, counts being purely additive and the fold
// therefore order-independent, the merged Snapshot — is byte-identical to
// the serial Run for any worker count. workers <= 0 means
// runtime.GOMAXPROCS(0).
func RunParallel(suite string, scale float64, seed int64, workers int, opts coverage.Options) (*coverage.Analyzer, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch suite {
	case SuiteXfstests, SuiteCrashMonkey:
	default:
		return nil, fmt.Errorf("harness: unknown suite %q", suite)
	}
	states := make([]*coverage.Analyzer, workers)
	for w := range states {
		states[w] = AcquireAnalyzer(opts)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = runShardInto(states[w], suite, scale, seed, w, workers)
		}(w)
	}
	wg.Wait()
	fail := func(err error) (*coverage.Analyzer, error) {
		for _, an := range states {
			ReleaseAnalyzer(an)
		}
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}
	merged, err := MergeTree(states)
	if err != nil {
		return fail(err)
	}
	// The root analyzer escapes to the caller; every other one returns to
	// the arena.
	for _, an := range states[1:] {
		ReleaseAnalyzer(an)
	}
	return merged, nil
}

// RunBoth runs both suites at the same scale (the evaluation's setup) and
// returns (xfstests, crashmonkey).
func RunBoth(scale float64, seed int64) (*coverage.Analyzer, *coverage.Analyzer, error) {
	xfs, err := Run(SuiteXfstests, scale, seed)
	if err != nil {
		return nil, nil, err
	}
	cm, err := Run(SuiteCrashMonkey, scale, seed)
	if err != nil {
		return nil, nil, err
	}
	return xfs, cm, nil
}

// RunBothParallel is RunBoth over RunParallel: both suites sharded across
// the same worker count, with results identical to RunBoth.
func RunBothParallel(scale float64, seed int64, workers int) (*coverage.Analyzer, *coverage.Analyzer, error) {
	xfs, err := RunParallel(SuiteXfstests, scale, seed, workers, coverage.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	cm, err := RunParallel(SuiteCrashMonkey, scale, seed, workers, coverage.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	return xfs, cm, nil
}
