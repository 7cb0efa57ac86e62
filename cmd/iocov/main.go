// Command iocov is the IOCov CLI: it measures input and output coverage of
// file-system test suites, either offline from an LTTng-style trace file or
// live by running one of the simulated suites.
//
// Subcommands:
//
//	iocov run -suite xfstests|crashmonkey [-scale F] [-seed N] [-workers N] [-trace FILE]
//	    Run a simulated suite through the pipeline; print coverage. The run
//	    is sharded across -workers goroutines (default: all cores) with a
//	    snapshot identical to a serial run. With -trace, also write the
//	    filtered trace to FILE (forces a single serial worker).
//
//	iocov analyze -trace FILE [-mount REGEX]
//	    Parse a trace file, filter to the mount point, print coverage.
//
//	iocov untested -suite NAME | -trace FILE
//	    Print only the untested input/output partitions — the actionable
//	    report the paper argues code coverage cannot provide.
//
//	iocov tcd -suite NAME [-target N] [-syscall S] [-arg A]
//	    Print the Test Coverage Deviation against a uniform target.
//
//	iocov evolve [-seed N] [-generations N] [-corpus N] [-workers N] [-out FILE] [-min] [-json FILE] [-verify]
//	    Evolve a syzkaller-style corpus until every reachable input
//	    partition of open/read/write is covered, printing per-generation
//	    fitness. Deterministic for a fixed -seed regardless of -workers.
//
// Profiling flags precede the subcommand and wrap its whole execution:
//
//	iocov -cpuprofile cpu.prof -memprofile mem.prof run -suite xfstests
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"iocov"
	"iocov/internal/coverage"
	"iocov/internal/evolve"
	"iocov/internal/harness"
	"iocov/internal/kernel"
	"iocov/internal/metrics"
	"iocov/internal/partition"
	"iocov/internal/render"
	"iocov/internal/sysspec"
	"iocov/internal/syz"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

func main() {
	// The profile writers rely on defers, which os.Exit would skip.
	os.Exit(realMain())
}

func realMain() int {
	global := flag.NewFlagSet("iocov", flag.ExitOnError)
	global.Usage = func() { usage() }
	cpuprofile := global.String("cpuprofile", "", "write a CPU profile of the subcommand to this file")
	memprofile := global.String("memprofile", "", "write a heap profile taken after the subcommand to this file")
	// Parse stops at the first non-flag argument: the subcommand.
	if err := global.Parse(os.Args[1:]); err != nil || global.NArg() < 1 {
		usage()
	}
	args := global.Args()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iocov:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "iocov:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	var err error
	switch args[0] {
	case "run":
		err = cmdRun(args[1:])
	case "analyze":
		err = cmdAnalyze(args[1:])
	case "untested":
		err = cmdUntested(args[1:])
	case "tcd":
		err = cmdTCD(args[1:])
	case "compare":
		err = cmdCompare(args[1:])
	case "diff":
		err = cmdDiff(args[1:])
	case "suggest":
		err = cmdSuggest(args[1:])
	case "evolve":
		err = cmdEvolve(args[1:])
	case "convert":
		err = cmdConvert(args[1:])
	case "spec":
		err = cmdSpec(args[1:])
	default:
		usage()
	}

	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "iocov:", ferr)
			return 1
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if perr := pprof.WriteHeapProfile(f); perr != nil {
			fmt.Fprintln(os.Stderr, "iocov:", perr)
			return 1
		}
		if cerr := f.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "iocov:", cerr)
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iocov:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: iocov [-cpuprofile FILE] [-memprofile FILE] run|analyze|untested|tcd|compare|diff|suggest|evolve|convert|spec [flags]")
	os.Exit(2)
}

// workersFlag registers the shared -workers flag; the default saturates the
// machine. extra is appended to the help text.
func workersFlag(fs *flag.FlagSet, extra string) *int {
	return fs.Int("workers", runtime.GOMAXPROCS(0),
		"worker goroutines for the sharded pipeline (default: all cores)"+extra)
}

// validateWorkers rejects non-positive -workers values with the subcommand's
// usage text.
func validateWorkers(fs *flag.FlagSet, n int) error {
	if n < 1 {
		fs.Usage()
		return fmt.Errorf("-workers must be at least 1, got %d", n)
	}
	return nil
}

// cmdSpec prints the syscall table IOCov is built on: base syscalls,
// variants, tracked arguments with their classes and partition schemes, and
// each syscall's documented errno universe.
func cmdSpec(args []string) error {
	fs := flag.NewFlagSet("spec", flag.ExitOnError)
	extended := fs.Bool("extended", false, "include the future-work extended syscalls")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tbl := sysspec.NewTable()
	if *extended {
		tbl = sysspec.NewExtendedTable()
	}
	fmt.Printf("%d base syscalls, %d raw syscalls after variant expansion, %d tracked arguments\n\n",
		len(tbl.Bases()), tbl.VariantCount(), tbl.TrackedArgCount())
	for _, base := range tbl.Bases() {
		spec := tbl.Spec(base)
		fmt.Printf("%s\n", base)
		fmt.Printf("  variants: %v\n", spec.Variants)
		for _, arg := range spec.Args {
			part := partition.ForScheme(arg.Scheme)
			domain := "identifier (not partitioned)"
			if part != nil {
				domain = fmt.Sprintf("%d partitions", len(part.Domain()))
			}
			fmt.Printf("  arg %-8s class=%-12s scheme=%-10s %s\n", arg.Name, arg.Class, arg.Scheme, domain)
		}
		names := make([]string, len(spec.Errnos))
		for i, e := range spec.Errnos {
			names[i] = e.Name()
		}
		fmt.Printf("  errnos (%d): %v\n\n", len(names), names)
	}
	return nil
}

// cmdConvert transcodes a trace between the text and binary formats (the
// input format is auto-detected; the output is the other one unless -to is
// given), like babeltrace converting CTF streams.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input trace file (required)")
	out := fs.String("out", "", "output trace file (required)")
	to := fs.String("to", "", "output format: text or binary (default: the opposite of the input)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert: -in and -out are required")
	}
	src, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	head := make([]byte, 4)
	n, _ := src.Read(head)
	if _, err := src.Seek(0, 0); err != nil {
		return err
	}
	inBinary := n == 4 && string(head) == "IOCV"
	outFormat := *to
	if outFormat == "" {
		if inBinary {
			outFormat = "text"
		} else {
			outFormat = "binary"
		}
	}
	var next func() (trace.Event, error)
	if inBinary {
		next = trace.NewBinaryParser(src).Next
	} else {
		next = trace.NewParser(src).Next
	}
	dst, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer dst.Close()
	var sink trace.Sink
	var flush func() error
	switch outFormat {
	case "text":
		w := trace.NewWriter(dst)
		sink, flush = w, w.Flush
	case "binary":
		w := trace.NewBinaryWriter(dst)
		sink, flush = w, w.Flush
	default:
		return fmt.Errorf("convert: unknown format %q", outFormat)
	}
	count := 0
	for {
		ev, err := next()
		if err != nil {
			if errorsIsEOF(err) {
				break
			}
			return err
		}
		sink.Emit(ev)
		count++
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Printf("converted %d events to %s\n", count, outFormat)
	return nil
}

func errorsIsEOF(err error) bool { return err == io.EOF }

// cmdSuggest runs a suite, finds its untested input partitions, and prints
// runnable syzkaller-style probe programs targeting them — the feedback
// loop the paper proposes for improving test suites. With -verify, the
// probes are executed against the simulated kernel and the coverage
// improvement is reported.
func cmdSuggest(args []string) error {
	fs := flag.NewFlagSet("suggest", flag.ExitOnError)
	suite := fs.String("suite", harness.SuiteCrashMonkey, "suite to probe")
	scale := fs.Float64("scale", 0.1, "workload scale")
	seed := fs.Int64("seed", 1, "workload seed")
	max := fs.Int("max", 0, "maximum probe programs (0 = all)")
	verify := fs.Bool("verify", false, "execute the probes and report the coverage gain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	an, err := harness.Run(*suite, *scale, *seed)
	if err != nil {
		return err
	}
	progs, truncated := syz.Suggest(an, "/mnt/test/probe", *max)
	fmt.Printf("# %d probe programs for %s's untested input partitions\n", len(progs), *suite)
	if truncated {
		fmt.Printf("# (truncated by -max=%d; rerun with -max=0 for the full set)\n", *max)
	}
	fmt.Println()
	for _, p := range progs {
		fmt.Println(p.Format())
	}
	if !*verify {
		return nil
	}
	before := make(map[string]int)
	for _, pr := range syz.Probes() {
		if rep := an.InputReport(pr.Syscall, pr.Arg); rep != nil {
			before[pr.Syscall+"."+pr.Arg] = rep.Covered()
		}
	}
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: an})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	for _, d := range []string{"/mnt", "/mnt/test", "/mnt/test/probe"} {
		_ = p.Mkdir(d, 0o777)
	}
	res := syz.Execute(p, progs)
	fmt.Printf("# verification: %d calls executed (%d failed)\n", res.Executed, res.Failures)
	// One line per space the probe table serves; a space the suite never
	// exercised has no report and got no probes.
	for _, pr := range syz.Probes() {
		rep := an.InputReport(pr.Syscall, pr.Arg)
		if rep == nil {
			continue
		}
		space := pr.Syscall + "." + pr.Arg
		fmt.Printf("# %-16s covered %d -> %d of %d\n", space, before[space], rep.Covered(), rep.DomainSize())
	}
	return nil
}

// cmdEvolve runs the coverage-guided evolutionary workload generator: a
// fuzzer-style seed corpus evolves until every reachable input partition of
// the open/read/write target spaces is covered (internal/evolve's loop).
// The run is deterministic for a fixed -seed whatever -workers is.
func cmdEvolve(args []string) error {
	fs := flag.NewFlagSet("evolve", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "seed driving corpus generation and every mutation")
	generations := fs.Int("generations", 16, "generation budget")
	corpus := fs.Int("corpus", 40, "seed corpus size")
	workers := workersFlag(fs, "; never changes the result")
	dir := fs.String("dir", "/evolve", "directory the programs operate in")
	out := fs.String("out", "", "write the final corpus (syzkaller program format) to this file")
	min := fs.Bool("min", false, "greedily minimize the corpus before writing it")
	jsonOut := fs.String("json", "", "write the final coverage snapshot JSON to this file")
	verify := fs.Bool("verify", false, "replay the corpus serially and check the snapshot is byte-identical")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateWorkers(fs, *workers); err != nil {
		return err
	}
	seedProgs := syz.Generate(syz.GenConfig{Programs: *corpus, Seed: *seed, Dir: *dir})
	res, err := evolve.Run(seedProgs, evolve.Config{
		Seed:        *seed,
		Generations: *generations,
		Workers:     *workers,
		Dir:         *dir,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%4s  %9s  %8s  %9s  %8s  %6s\n",
		"gen", "untested", "newly", "evaluated", "accepted", "corpus")
	for _, f := range res.History {
		fmt.Printf("%4d  %9d  %8d  %9d  %8d  %6d\n",
			f.Generation, f.UntestedInputs, f.NewlyHit, f.Evaluated, f.Accepted, f.CorpusSize)
	}
	last := res.History[len(res.History)-1]
	for _, sf := range last.Inputs {
		fmt.Printf("# %-12s covered %d/%d (floor %d, untested %d), tcd %.3f\n",
			sf.Space, sf.Covered, sf.Domain, sf.Floor, sf.Untested, sf.TCD)
	}
	if last.UntestedInputs == 0 {
		fmt.Printf("# every reachable input partition covered after %d generations\n", res.Generations)
	} else {
		fmt.Printf("# %d input partitions still untested after %d generations\n",
			last.UntestedInputs, res.Generations)
	}

	final := res.Corpus
	if *min {
		final = res.Minimize()
		fmt.Printf("# corpus minimized %d -> %d programs\n", len(res.Corpus), len(final))
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := syz.WritePrograms(f, final); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("# wrote %d programs to %s\n", len(final), *out)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := res.Analyzer.Snapshot(0).WriteJSON(f); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("# wrote snapshot to %s\n", *jsonOut)
	}
	if *verify {
		var evolved, replayed bytes.Buffer
		if err := res.Analyzer.Snapshot(0).WriteJSON(&evolved); err != nil {
			return err
		}
		if err := evolve.Replay(res.Corpus, *dir).Snapshot(0).WriteJSON(&replayed); err != nil {
			return err
		}
		if !bytes.Equal(evolved.Bytes(), replayed.Bytes()) {
			return fmt.Errorf("evolve: serial replay does not reproduce the evolved snapshot")
		}
		fmt.Println("# verification: serial replay reproduces the evolved snapshot byte-identically")
	}
	return nil
}

// cmdDiff compares two JSON coverage snapshots (produced with run/analyze
// -json) and reports partitions each covers that the other does not — the
// CI primitive for catching coverage regressions across suite versions.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	oldFile := fs.String("old", "", "baseline snapshot JSON (required)")
	newFile := fs.String("new", "", "candidate snapshot JSON (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldFile == "" || *newFile == "" {
		return fmt.Errorf("diff: -old and -new are required")
	}
	load := func(path string) (*coverage.Snapshot, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return coverage.LoadSnapshot(f)
	}
	oldSnap, err := load(*oldFile)
	if err != nil {
		return err
	}
	newSnap, err := load(*newFile)
	if err != nil {
		return err
	}
	lost := oldSnap.DiffSnapshot(newSnap)
	gained := newSnap.DiffSnapshot(oldSnap)
	printDiffs := func(title string, diffs []coverage.SnapshotDiff) {
		fmt.Printf("%s (%d spaces):\n", title, len(diffs))
		for _, d := range diffs {
			space := "output"
			if d.Arg != "" {
				space = "input " + d.Arg
			}
			fmt.Printf("  %-10s %-16s %v\n", d.Syscall, space, d.OnlyInFirst)
		}
		fmt.Println()
	}
	printDiffs("coverage LOST (in old, not in new)", lost)
	printDiffs("coverage GAINED (in new, not in old)", gained)
	if len(lost) > 0 {
		os.Exit(1) // regression: fail like a CI gate would
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	scale := fs.Float64("scale", 0.1, "workload scale for both suites")
	seed := fs.Int64("seed", 1, "workload seed")
	syscall := fs.String("syscall", "open", "syscall to compare")
	arg := fs.String("arg", "flags", "input argument to compare (\"\" = output space)")
	workers := workersFlag(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateWorkers(fs, *workers); err != nil {
		return err
	}
	xfs, cm, err := harness.RunBothParallel(*scale, *seed, *workers)
	if err != nil {
		return err
	}
	pick := func(an *coverage.Analyzer) *coverage.Report {
		if *arg == "" {
			return an.OutputReport(*syscall)
		}
		return an.InputReport(*syscall, *arg)
	}
	xr, cr := pick(xfs), pick(cm)
	if xr == nil || cr == nil {
		return fmt.Errorf("compare: no coverage recorded for %s.%s", *syscall, *arg)
	}
	title := fmt.Sprintf("%s.%s coverage, CrashMonkey vs xfstests (scale %g)", *syscall, *arg, *scale)
	render.Comparison(os.Stdout, title, []render.Series{
		{Name: "CrashMonkey", Report: cr.TrimZeroTail(8)},
		{Name: "xfstests", Report: xr.TrimZeroTail(8)},
	})
	if cross, ok := metrics.Crossover(cr.Frequencies(), xr.Frequencies(), 100_000_000); ok {
		fmt.Printf("TCD crossover (xfstests overtakes CrashMonkey) at uniform target %d\n", cross)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	suite := fs.String("suite", harness.SuiteCrashMonkey, "suite to run: xfstests or crashmonkey")
	scale := fs.Float64("scale", 0.1, "workload scale (1.0 = full run)")
	seed := fs.Int64("seed", 1, "workload seed")
	traceFile := fs.String("trace", "", "also write the filtered trace to this file")
	format := fs.String("format", "text", "trace file format: text or binary")
	asJSON := fs.Bool("json", false, "emit the coverage snapshot as JSON")
	extended := fs.Bool("extended", false, "analyze with the future-work extended syscall table")
	combos := fs.Bool("combinations", false, "track distinct bitmap combinations as partitions")
	remote := fs.String("remote", "", "stream shards to an iocovd daemon at this address instead of analyzing locally")
	workers := workersFlag(fs, "; -trace forces 1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateWorkers(fs, *workers); err != nil {
		return err
	}
	if *remote != "" {
		if *traceFile != "" || *extended || *combos {
			return fmt.Errorf("run: -remote is incompatible with -trace/-extended/-combinations (the daemon owns the analyzer)")
		}
		return runRemote(*remote, *suite, *scale, *seed, *workers, *asJSON)
	}
	opts := coverage.DefaultOptions()
	opts.ExtendedSyscalls = *extended
	opts.TrackCombinations = *combos
	var sinks []trace.Sink
	var flush func() error
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		switch *format {
		case "text":
			w := trace.NewWriter(f)
			sinks = append(sinks, w)
			flush = w.Flush
		case "binary":
			w := trace.NewBinaryWriter(f)
			sinks = append(sinks, w)
			flush = w.Flush
		default:
			return fmt.Errorf("run: unknown format %q", *format)
		}
	}
	// Trace writers need the serial event order; without one, shard the run
	// across workers — the merged snapshot is identical either way.
	var an *coverage.Analyzer
	var err error
	if len(sinks) > 0 {
		an, err = harness.RunWithOptions(*suite, *scale, *seed, opts, sinks...)
	} else {
		an, err = harness.RunParallel(*suite, *scale, *seed, *workers, opts)
	}
	if err != nil {
		return err
	}
	if flush != nil {
		if err := flush(); err != nil {
			return err
		}
	}
	if *asJSON {
		return an.Snapshot(0).WriteJSON(os.Stdout)
	}
	if *combos {
		rows := an.Combinations("open", "flags")
		fmt.Printf("distinct open flag combinations: %d\n", len(rows))
		for i, row := range rows {
			if i >= 12 {
				fmt.Printf("  ... (%d more)\n", len(rows)-12)
				break
			}
			fmt.Printf("  %10d  %s\n", row.Count, row.Label)
		}
		fmt.Println()
	}
	printCoverageTable(an, *suite, *extended)
	return nil
}

// runRemote is run's -remote mode: wait for the daemon, stream every shard
// to it (with retry and exponential backoff on transient failures), and
// report the daemon's receipts. With -json the daemon's aggregate /report
// is copied to stdout — note it reflects every session the daemon has
// merged, not just this run's.
func runRemote(addr, suite string, scale float64, seed int64, workers int, asJSON bool) error {
	if err := harness.WaitReady(addr, 10*time.Second); err != nil {
		return err
	}
	res, err := harness.RunRemote(addr, suite, scale, seed, harness.RemoteOptions{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"iocov: streamed %s to %s: %d shards (%d retries), %d events, %d kept, %d dropped, %d analyzed, %d skipped\n",
		suite, addr, res.Shards, res.Retries, res.Events, res.Kept, res.Dropped, res.Analyzed, res.Skipped)
	if !asJSON {
		return nil
	}
	snap, err := harness.FetchRemoteReport(addr)
	if err != nil {
		return err
	}
	return snap.WriteJSON(os.Stdout)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	traceFile := fs.String("trace", "", "trace file to analyze (required)")
	mount := fs.String("mount", harness.MountPattern, "mount-point regexp for the trace filter")
	asJSON := fs.Bool("json", false, "emit the coverage snapshot as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFile == "" {
		return fmt.Errorf("analyze: -trace is required")
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		return err
	}
	defer f.Close()
	an, kept, dropped, err := iocov.AnalyzeTrace(f, *mount)
	if err != nil {
		return err
	}
	if *asJSON {
		return an.Snapshot(0).WriteJSON(os.Stdout)
	}
	fmt.Printf("# trace: %d events kept, %d filtered out\n\n", kept, dropped)
	printCoverage(an, *traceFile)
	return nil
}

func printCoverage(an *coverage.Analyzer, source string) {
	printCoverageTable(an, source, false)
}

func printCoverageTable(an *coverage.Analyzer, source string, extended bool) {
	fmt.Printf("Input/output coverage for %s (%d syscalls analyzed, %d out of scope)\n\n",
		source, an.Analyzed(), an.Skipped())
	tbl := sysspec.NewTable()
	if extended {
		tbl = sysspec.NewExtendedTable()
	}
	for _, base := range tbl.Bases() {
		spec := tbl.Spec(base)
		for _, arg := range spec.TrackedArgs() {
			rep := an.InputReport(base, arg.Name)
			if rep == nil {
				continue
			}
			rep = rep.TrimZeroTail(8)
			render.Comparison(os.Stdout,
				fmt.Sprintf("input %s.%s (%s, %s)", base, arg.Name, arg.Class, arg.Scheme),
				[]render.Series{{Name: source, Report: rep}})
		}
		if rep := an.OutputReport(base); rep != nil {
			rep = rep.TrimZeroTail(8)
			render.Comparison(os.Stdout, fmt.Sprintf("output %s", base),
				[]render.Series{{Name: source, Report: rep}})
		}
	}
}

func cmdUntested(args []string) error {
	fs := flag.NewFlagSet("untested", flag.ExitOnError)
	suite := fs.String("suite", "", "suite to run")
	traceFile := fs.String("trace", "", "trace file to analyze instead")
	scale := fs.Float64("scale", 0.1, "workload scale")
	seed := fs.Int64("seed", 1, "workload seed")
	mount := fs.String("mount", harness.MountPattern, "mount-point regexp")
	workers := workersFlag(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateWorkers(fs, *workers); err != nil {
		return err
	}
	var an *coverage.Analyzer
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if an, _, _, err = iocov.AnalyzeTrace(f, *mount); err != nil {
			return err
		}
	case *suite != "":
		var err error
		an, err = harness.RunParallel(*suite, *scale, *seed, *workers, coverage.DefaultOptions())
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("untested: need -suite or -trace")
	}
	sums := an.UntestedAll(34)
	for _, s := range sums {
		space := "output"
		if s.Arg != "" {
			space = "input " + s.Arg
		}
		fmt.Printf("%-10s %-16s untested: %v\n", s.Syscall, space, s.Labels)
	}
	return nil
}

func cmdTCD(args []string) error {
	fs := flag.NewFlagSet("tcd", flag.ExitOnError)
	suite := fs.String("suite", harness.SuiteCrashMonkey, "suite to run")
	scale := fs.Float64("scale", 0.1, "workload scale")
	seed := fs.Int64("seed", 1, "workload seed")
	syscall := fs.String("syscall", "open", "syscall whose argument to score")
	arg := fs.String("arg", "flags", "argument to score")
	target := fs.Int64("target", 1000, "uniform per-partition test target")
	workers := workersFlag(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateWorkers(fs, *workers); err != nil {
		return err
	}
	an, err := harness.RunParallel(*suite, *scale, *seed, *workers, coverage.DefaultOptions())
	if err != nil {
		return err
	}
	rep := an.InputReport(*syscall, *arg)
	if rep == nil {
		return fmt.Errorf("tcd: no coverage recorded for %s.%s", *syscall, *arg)
	}
	freqs := rep.Frequencies()
	fmt.Printf("TCD(%s.%s, target %d) = %.3f\n", *syscall, *arg, *target,
		metrics.UniformTCD(freqs, *target))
	counts := metrics.ClassifyAll(freqs, *target, 10)
	fmt.Printf("partitions: %d untested, %d under-tested, %d adequate, %d over-tested\n",
		counts[metrics.Untested], counts[metrics.UnderTested],
		counts[metrics.Adequate], counts[metrics.OverTested])
	return nil
}
