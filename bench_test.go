// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the ablations DESIGN.md calls out and the pipeline's raw throughput.
//
// Each evaluation bench runs the relevant pipeline at a reduced scale per
// iteration and reports the headline shape metric alongside time/allocs;
// cmd/figures regenerates the full artifacts.
package iocov

import (
	"bytes"
	"fmt"
	"testing"

	"iocov/internal/bugdb"
	"iocov/internal/bugsim"
	"iocov/internal/corr"
	"iocov/internal/coverage"
	"iocov/internal/difftest"
	"iocov/internal/evolve"
	"iocov/internal/harness"
	"iocov/internal/kernel"
	"iocov/internal/lint"
	"iocov/internal/metrics"
	"iocov/internal/partition"
	"iocov/internal/suites/crashmonkey"
	"iocov/internal/sys"
	"iocov/internal/syz"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

const benchScale = 0.02

// collectEvents runs the CrashMonkey simulator once and retains its raw
// filtered events, shared by the analyzer-only benchmarks.
func collectEvents(tb testing.TB, scale float64) []trace.Event {
	col := trace.NewCollector()
	filter, err := trace.NewFilter(harness.MountPattern)
	if err != nil {
		tb.Fatal(err)
	}
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{
		Sink: &trace.FilteringSink{F: filter, Next: col},
	})
	if _, err := crashmonkey.Run(k, crashmonkey.Config{Scale: scale, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	return col.Events()
}

// BenchmarkFigure2OpenFlagCoverage regenerates Figure 2's data: per-flag
// input coverage of the open family for a suite run.
func BenchmarkFigure2OpenFlagCoverage(b *testing.B) {
	var covered int
	for i := 0; i < b.N; i++ {
		an, err := harness.Run(harness.SuiteCrashMonkey, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		covered = an.InputReport("open", "flags").Covered()
	}
	b.ReportMetric(float64(covered), "flags-covered")
}

// BenchmarkTable1FlagCombinations regenerates Table 1's combination-size
// percentages.
func BenchmarkTable1FlagCombinations(b *testing.B) {
	var rows []coverage.ComboRow
	for i := 0; i < b.N; i++ {
		an, err := harness.Run(harness.SuiteCrashMonkey, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows = an.ComboTable(6)
	}
	b.ReportMetric(rows[0].Pct[3], "pct-4flag")
}

// BenchmarkFigure3WriteSizeCoverage regenerates Figure 3's data: write-size
// input coverage in powers-of-two partitions.
func BenchmarkFigure3WriteSizeCoverage(b *testing.B) {
	var covered int
	for i := 0; i < b.N; i++ {
		an, err := harness.Run(harness.SuiteCrashMonkey, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		covered = an.InputReport("write", "count").Covered()
	}
	b.ReportMetric(float64(covered), "size-buckets-covered")
}

// BenchmarkFigure4OpenOutputCoverage regenerates Figure 4's data: success
// and errno output coverage of open.
func BenchmarkFigure4OpenOutputCoverage(b *testing.B) {
	var covered int
	for i := 0; i < b.N; i++ {
		an, err := harness.Run(harness.SuiteCrashMonkey, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		covered = an.OutputReport("open").Covered()
	}
	b.ReportMetric(float64(covered), "outputs-covered")
}

// BenchmarkFigure5TCD regenerates Figure 5: the TCD sweep over uniform
// targets plus the crossover search, on a fixed coverage vector.
func BenchmarkFigure5TCD(b *testing.B) {
	an, err := harness.Run(harness.SuiteCrashMonkey, benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	xfs, err := harness.Run(harness.SuiteXfstests, benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	cf := an.InputReport("open", "flags").Frequencies()
	xf := xfs.InputReport("open", "flags").Frequencies()
	b.ResetTimer()
	var cross int64
	for i := 0; i < b.N; i++ {
		_ = metrics.Sweep(cf, 100_000_000, 10)
		_ = metrics.Sweep(xf, 100_000_000, 10)
		cross, _ = metrics.Crossover(cf, xf, 100_000_000)
	}
	b.ReportMetric(float64(cross), "crossover-target")
}

// BenchmarkBugStudyAggregates recomputes every §2 statistic from the
// 70-bug dataset.
func BenchmarkBugStudyAggregates(b *testing.B) {
	var agg bugdb.Aggregates
	for i := 0; i < b.N; i++ {
		agg = bugdb.Aggregate(bugdb.Load())
	}
	b.ReportMetric(float64(agg.LineCovMissed), "line-covered-missed")
}

// BenchmarkBugSimDetection runs the covered-but-missed demonstration: all
// five injected bug classes assessed under regression and boundary
// workloads (Figure 1's narrative made executable).
func BenchmarkBugSimDetection(b *testing.B) {
	var detected int
	for i := 0; i < b.N; i++ {
		detected = 0
		for _, bug := range bugsim.Catalog {
			out := bugsim.Assess(bug, vfs.DefaultConfig(), bugsim.BoundaryWorkload(bug.ID))
			if out.Detected {
				detected++
			}
		}
	}
	b.ReportMetric(float64(detected), "bugs-detected")
}

// BenchmarkDiffTester measures the §6 coverage-guided differential tester.
func BenchmarkDiffTester(b *testing.B) {
	var mm int
	for i := 0; i < b.N; i++ {
		cfg := difftest.Config{Ops: 2000, Seed: int64(i), GuideEvery: 25}
		cfg.FS = vfs.DefaultConfig()
		cfg.FS.Bugs.NowaitWriteENOSPC = true
		mm = len(difftest.Run(cfg).Mismatches)
	}
	b.ReportMetric(float64(mm), "mismatches")
}

// BenchmarkCorrelationStudy runs the §2 correlation quantification: random
// workloads x injected bugs, phi coefficients of the two predictors.
func BenchmarkCorrelationStudy(b *testing.B) {
	var phi float64
	for i := 0; i < b.N; i++ {
		res := corr.Run(corr.Config{Workloads: 40, Seed: int64(i)})
		phi = res.PhiTrigger
	}
	b.ReportMetric(phi, "phi-trigger")
}

// --- Ablations --------------------------------------------------------------

// BenchmarkAblationVariantMerging compares analysis with and without the
// syscall variant handler. Without merging, variants fragment into separate
// coverage spaces (more counters, smaller per-space frequencies).
func BenchmarkAblationVariantMerging(b *testing.B) {
	events := collectEvents(b, 0.2)
	for _, merge := range []bool{true, false} {
		name := "merged"
		if !merge {
			name = "unmerged"
		}
		b.Run(name, func(b *testing.B) {
			var spaces int
			for i := 0; i < b.N; i++ {
				an := coverage.NewAnalyzer(coverage.Options{MergeVariants: merge})
				an.AddAll(events)
				spaces = len(an.Syscalls())
			}
			b.ReportMetric(float64(spaces), "coverage-spaces")
		})
	}
}

// BenchmarkAblationTraceFilter measures the regex+fd-table filter cost over
// a mixed in/out-of-mount event stream.
func BenchmarkAblationTraceFilter(b *testing.B) {
	events := collectEvents(b, 0.2)
	// Interleave out-of-mount noise.
	mixed := make([]trace.Event, 0, len(events)*2)
	for _, ev := range events {
		mixed = append(mixed, ev)
		// Rebuild the event rather than copy it so every string argument
		// (inline or spilled) points outside the mount.
		noise := trace.Event{
			Seq: ev.Seq, PID: ev.PID, Name: ev.Name,
			Path: "/var/log/other", Ret: ev.Ret, Err: ev.Err,
		}
		ev.EachArg(noise.AddArg)
		ev.EachStr(func(k, _ string) { noise.AddStr(k, noise.Path) })
		mixed = append(mixed, noise)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := trace.NewFilter(harness.MountPattern)
		if err != nil {
			b.Fatal(err)
		}
		kept := f.Apply(mixed)
		if len(kept) == 0 {
			b.Fatal("filter dropped everything")
		}
	}
}

// BenchmarkAblationNumericPartitioning compares the paper's powers-of-two
// bucketing against fixed-width linear bucketing for write sizes.
func BenchmarkAblationNumericPartitioning(b *testing.B) {
	sizes := make([]int64, 100_000)
	for i := range sizes {
		k := uint(i % 29)
		base := int64(1) << k
		sizes[i] = base + (int64(i)*7919)%base // spread within the bucket
	}
	b.Run("log2", func(b *testing.B) {
		s := partition.BytesScheme{}
		for i := 0; i < b.N; i++ {
			for _, v := range sizes {
				_ = s.Partitions(v)
			}
		}
	})
	b.Run("linear4k", func(b *testing.B) {
		counts := make(map[int64]int64)
		for i := 0; i < b.N; i++ {
			clear(counts)
			for _, v := range sizes {
				counts[v/4096]++
			}
		}
		// Linear bucketing needs ~65k buckets to span the same range the
		// 29 log buckets cover — the reason the paper uses powers of two.
		b.ReportMetric(float64(len(counts)), "buckets")
	})
}

// BenchmarkAblationTCDLinear compares the paper's log-space TCD against a
// linear-space RMSD, demonstrating cost parity (the choice is about
// semantics, not speed).
func BenchmarkAblationTCDLinear(b *testing.B) {
	an, err := harness.Run(harness.SuiteCrashMonkey, benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	freqs := an.InputReport("open", "flags").Frequencies()
	b.Run("log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = metrics.UniformTCD(freqs, 5237)
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = metrics.LinearTCD(freqs, 5237)
		}
	})
}

// BenchmarkAblationCrashOracle measures the cost of the crash-consistency
// oracle: the CrashMonkey simulation with and without persistence
// snapshots + durability checks.
func BenchmarkAblationCrashOracle(b *testing.B) {
	for _, check := range []bool{false, true} {
		name := "off"
		if check {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var violations int
			for i := 0; i < b.N; i++ {
				k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{})
				stats, err := crashmonkey.Run(k, crashmonkey.Config{
					Scale: 0.05, Seed: 1, CrashCheck: check,
				})
				if err != nil {
					b.Fatal(err)
				}
				violations = stats.CrashViolations
			}
			b.ReportMetric(float64(violations), "violations")
		})
	}
}

// --- Parallel pipeline -------------------------------------------------------

// BenchmarkSuiteSerialVsParallel pairs a serial suite run against the
// sharded worker-pool run at several worker counts. Every variant produces
// a byte-identical snapshot (the harness test enforces it); the benchmark
// measures what sharding costs or saves on this machine. Speedups track
// available CPUs: on a single-CPU host the parallel variants only add the
// shard set-up and merge overhead.
func BenchmarkSuiteSerialVsParallel(b *testing.B) {
	for _, suite := range []string{harness.SuiteXfstests, harness.SuiteCrashMonkey} {
		b.Run(suite+"/serial", func(b *testing.B) {
			var analyzed int64
			for i := 0; i < b.N; i++ {
				an, err := harness.Run(suite, benchScale, 1)
				if err != nil {
					b.Fatal(err)
				}
				analyzed = an.Analyzed()
			}
			b.ReportMetric(float64(analyzed), "events")
		})
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", suite, workers), func(b *testing.B) {
				var analyzed int64
				for i := 0; i < b.N; i++ {
					an, err := harness.RunParallel(suite, benchScale, 1, workers, coverage.DefaultOptions())
					if err != nil {
						b.Fatal(err)
					}
					analyzed = an.Analyzed()
				}
				b.ReportMetric(float64(analyzed), "events")
			})
		}
	}
}

// BenchmarkAnalyzerMerge measures the merge step in isolation: combining
// two analyzers that each absorbed half of a suite's event stream.
func BenchmarkAnalyzerMerge(b *testing.B) {
	events := collectEvents(b, 0.2)
	half := len(events) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lo := coverage.NewAnalyzer(coverage.DefaultOptions())
		hi := coverage.NewAnalyzer(coverage.DefaultOptions())
		lo.AddAll(events[:half])
		hi.AddAll(events[half:])
		b.StartTimer()
		if err := lo.Merge(hi); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Pipeline throughput -----------------------------------------------------

// BenchmarkKernelSyscalls measures raw traced-syscall cost (open/write/
// close cycle).
func BenchmarkKernelSyscalls(b *testing.B) {
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: &trace.CountingSink{}})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd, e := p.Open("/bench", sys.O_CREAT|sys.O_WRONLY|sys.O_TRUNC, 0o644)
		if e != sys.OK {
			b.Fatal(e)
		}
		if _, e := p.Write(fd, buf); e != sys.OK {
			b.Fatal(e)
		}
		if e := p.Close(fd); e != sys.OK {
			b.Fatal(e)
		}
	}
}

// BenchmarkAnalyzerThroughput measures events/sec through the analyzer.
func BenchmarkAnalyzerThroughput(b *testing.B) {
	events := collectEvents(b, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := coverage.NewAnalyzer(coverage.DefaultOptions())
		an.AddAll(events)
	}
	b.SetBytes(int64(len(events)))
}

// BenchmarkEvolveGenerations measures the evolutionary workload generator:
// one iteration is a full fixed-seed run (seed evaluation plus the
// generations needed to cover every reachable input partition), so ns/op
// divided by the generation count is the loop's generations/sec headline.
func BenchmarkEvolveGenerations(b *testing.B) {
	seed := syz.Generate(syz.GenConfig{Programs: 20, Seed: 7, Dir: "/evolve"})
	b.ResetTimer()
	gens := 0
	for i := 0; i < b.N; i++ {
		res, err := evolve.Run(seed, evolve.Config{Seed: 7, Generations: 12})
		if err != nil {
			b.Fatal(err)
		}
		if res.Untested() != 0 {
			b.Fatalf("%d partitions still untested", res.Untested())
		}
		gens += res.Generations
	}
	b.ReportMetric(float64(gens)/float64(b.N), "generations/op")
}

// BenchmarkTraceWriteParse measures the LTTng-style text round trip.
func BenchmarkTraceWriteParse(b *testing.B) {
	events := collectEvents(b, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for _, ev := range events {
			w.Emit(ev)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		parsed, err := trace.ParseAll(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(parsed) != len(events) {
			b.Fatalf("parsed %d of %d", len(parsed), len(events))
		}
	}
}

// BenchmarkLintSuite runs the full seven-pass static-analysis suite over
// the repository, including the load and type-check, the way `make lint`
// pays for it; the per-pass engines (call graph, CFGs) are rebuilt each
// iteration.
func BenchmarkLintSuite(b *testing.B) {
	var findings int
	for i := 0; i < b.N; i++ {
		tgt, err := lint.LoadRepo(".")
		if err != nil {
			b.Fatal(err)
		}
		findings = len(lint.RunAll(tgt, lint.AllPasses()))
	}
	if findings != 0 {
		b.Fatalf("lint suite found %d findings on the live tree", findings)
	}
}
