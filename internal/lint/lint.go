// Package lint is iocov's self-checking static-analysis suite. It proves,
// by construction rather than by review, the invariants the coverage
// pipeline silently depends on:
//
//   - domaincheck: every partition label a scheme's Partitions() can emit is
//     declared by its Domain(), domains are duplicate-free, and numeric and
//     output domains are canonically ordered (the pre-PR-1 BytesScheme bug
//     class, caught mechanically);
//   - speccheck: the sysspec base/extended tables are internally consistent
//     and every syscall the kernel dispatch emits has a spec entry;
//   - shardcheck: worker-path packages (internal/harness, internal/suites)
//     contain no writes to package-level state and no wall-clock or global
//     RNG calls, either of which would break the byte-identical
//     RunParallel-vs-Run snapshot contract;
//   - errcheck: no error return is silently dropped in internal/ or cmd/;
//   - httpcheck: every HTTP handler error path in internal/ and cmd/ sets
//     an explicit status code on the ResponseWriter — an early return that
//     never touches the writer becomes an implicit 200 with an empty body;
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
//   - atomcheck: an object accessed through sync/atomic package-level calls
//     anywhere must be accessed that way everywhere — one plain read beside
//     an atomic increment is a data race the race detector only catches
//     when the schedule cooperates;
//   - determcheck: functions statically reachable from //iocov:deterministic
//     roots must not read the wall clock, use the global RNG, launch
//     goroutines, or leak map iteration order into their results (append
//     inside a map range is tainted until a subsequent sort washes it);
//   - boundcheck: every index expression reachable from an //iocov:hotpath
//     root is proven in-bounds by the value lattice, or the function carries
//     a reasoned //iocov:bounds-ok annotation — and a stale annotation on a
//     fully proven function is itself a finding.
//
// shardcheck additionally holds internal/server (the iocovd daemon) to its
// no-package-level-writes rule, with the wall-clock rules relaxed.
//
// The interprocedural passes (alloccheck, leakcheck, determcheck,
// boundcheck) share one lazily built package-spanning call graph (see
// callgraph.go): static edges from resolved callees, conservative edges from
// interface method sets and func-value flow, condensed into SCCs for
// fixpoint analyses. boundcheck and domaincheck additionally share a
// per-target value-analysis engine (see values.go): a
// constant/interval lattice with relational length facts, propagated to a
// fixpoint over each function's CFG and seeded interprocedurally through
// return-value summaries and never-mutated constant tables.
//
// The suite is built only on the standard library's go/parser, go/ast,
// go/token and go/types packages; repository packages are type-checked
// against a source importer, so passes reason about resolved objects and
// folded constants, not token spellings. Passes are hybrid where a purely
// static proof is impossible: domaincheck and speccheck also probe the live
// partition and sysspec registries exhaustively (see ProbeScheme and
// ProbeOutputDomain).
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
		NewDomainCheck(),
		NewSpecCheck(),
		NewShardCheck(),
		NewErrCheck(),
		NewHTTPCheck(),
		NewLockCheck(),
		NewAllocCheck(),
		NewLeakCheck(),
		NewAtomCheck(),
		NewDetermCheck(),
		NewBoundCheck(),
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
