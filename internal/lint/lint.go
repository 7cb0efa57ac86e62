// Package lint is iocov's self-checking static-analysis suite. It proves,
// by construction rather than by review, the invariants the coverage
// pipeline silently depends on:
//
//   - speccheck: the sysspec base/extended tables are internally consistent
//     and every syscall the kernel dispatch emits has a spec entry;
//   - shardcheck: worker-path packages (internal/harness, internal/suites)
//     contain no writes to package-level state and no wall-clock or global
//     RNG calls, either of which would break the byte-identical
//     RunParallel-vs-Run snapshot contract;
//   - errcheck: no error return is silently dropped in internal/ or cmd/;
//   - lockcheck: flow-sensitive lock-discipline verification over a
//     per-function CFG (see cfg.go, dataflow.go): fields guarded by an
//     adjacent mutex or an //iocov:guarded-by annotation are only touched
//     with the right lock held, and double-lock, lock-leak and
//     unlock-without-lock are flagged on any path that exhibits them;
//   - alloccheck: functions reachable from //iocov:hotpath roots are proven
//     free of allocating constructs, making the zero-allocation contract
//     static — the AllocsPerRun regressions self-skip under -race, this
//     pass does not;
//   - leakcheck: every goroutine launch must have a provable exit path —
//     the launched function may return on some CFG path, or the launch
//     carries an //iocov:bounded-by annotation; sends on unbuffered local
//     channels whose every receive sits in a multi-case select are flagged
//     as abandonable;
//   - determcheck: functions statically reachable from //iocov:deterministic
//     roots must not read the wall clock, use the global RNG, launch
//     goroutines, or leak map iteration order into their results (append
//     inside a map range is tainted until a subsequent sort washes it).
//
// shardcheck additionally holds internal/server (the iocovd daemon) to its
// no-package-level-writes rule, with the wall-clock rules relaxed.
//
// The interprocedural passes (alloccheck, leakcheck, determcheck) share one
// lazily built package-spanning call graph (see callgraph.go): static edges
// from resolved callees, conservative edges from interface method sets and
// func-value flow, condensed into SCCs for fixpoint analyses.
//
// Invariants a test already guards are left to the test: the partition
// domain contract to internal/partition's domain-invariant tests, HTTP
// status codes to internal/server's handler tests, and index bounds to Go's
// run-time checks plus the trace fuzzers (DESIGN.md §16).
//
// The suite is built only on the standard library's go/parser, go/ast,
// go/token and go/types packages; repository packages are type-checked
// against a source importer, so passes reason about resolved objects and
// folded constants, not token spellings. speccheck is hybrid where a purely
// static proof is impossible: it also checks the compiled-in sysspec tables.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Finding is one diagnostic produced by a pass.
type Finding struct {
	// Pass is the producing pass's name.
	Pass string
	// Pos locates the offending source, when the pass can attribute one
	// (registry probes on compiled-in values may not have a position).
	Pos token.Position
	// Message describes the violated invariant.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	if f.Pos.Filename == "" {
		return fmt.Sprintf("[%s] %s", f.Pass, f.Message)
	}
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Pass, f.Message)
}

// Pass is one analysis over a loaded target.
type Pass interface {
	// Name identifies the pass in findings and CLI -passes selection.
	Name() string
	// Run analyzes the target and returns its findings.
	Run(t *Target) []Finding
}

// AllPasses returns the full suite in canonical order, configured for this
// repository's layout.
func AllPasses() []Pass {
	return []Pass{
		NewSpecCheck(),
		NewShardCheck(),
		NewErrCheck(),
		NewLockCheck(),
		NewAllocCheck(),
		NewLeakCheck(),
		NewDetermCheck(),
	}
}

// PassNames returns the names of the full suite in canonical order.
func PassNames() []string {
	var names []string
	for _, p := range AllPasses() {
		names = append(names, p.Name())
	}
	return names
}

// SelectPasses resolves a comma-separated pass list ("" means all).
func SelectPasses(spec string) ([]Pass, error) {
	all := AllPasses()
	if spec == "" {
		return all, nil
	}
	byName := make(map[string]Pass, len(all))
	for _, p := range all {
		byName[p.Name()] = p
	}
	var out []Pass
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown pass %q (have %s)",
				name, strings.Join(PassNames(), ", "))
		}
		out = append(out, p)
	}
	return out, nil
}

// PassTime records one pass's wall-clock analysis time.
type PassTime struct {
	Name    string
	Elapsed time.Duration
}

// RunAll runs the given passes over the target and returns the combined
// findings sorted by position then message, for deterministic output.
func RunAll(t *Target, passes []Pass) []Finding {
	findings, _ := RunAllTimed(t, passes)
	return findings
}

// RunAllTimed is RunAll plus per-pass wall-clock analysis times, in the
// order the passes ran; CI logs them so regressions in engine cost (the CFG
// and dataflow passes dominate) are visible in history.
func RunAllTimed(t *Target, passes []Pass) ([]Finding, []PassTime) {
	var out []Finding
	times := make([]PassTime, 0, len(passes))
	for _, p := range passes {
		start := time.Now()
		out = append(out, p.Run(t)...)
		times = append(times, PassTime{Name: p.Name(), Elapsed: time.Since(start)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
	return out, times
}
