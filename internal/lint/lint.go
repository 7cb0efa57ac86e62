// Package lint is iocov's self-checking static-analysis suite. It proves,
// by construction rather than by review, the invariants the coverage
// pipeline silently depends on:
//
//   - speccheck: the sysspec base/extended tables are internally consistent
//     and every syscall the kernel dispatch emits has a spec entry;
//   - shardcheck: the worker-path packages (internal/harness, the suites,
//     internal/evolve) and the iocovd daemon (internal/server) write no
//     package-level variable, which would be state shared across shards or
//     sessions;
//   - errcheck: no error return is silently dropped in internal/ or cmd/.
//
// Invariants a test already guards are left to the test: the partition
// domain contract to internal/partition's domain-invariant tests, HTTP
// status codes to internal/server's handler tests, index bounds to Go's
// run-time checks plus the trace fuzzers, lock discipline and goroutine
// exits to the -race lane and the goroutine-leak test, byte-identical
// output to the serial-vs-parallel, render-many and two-run byte
// comparisons, and the zero-allocation per-event path to the
// testing.AllocsPerRun pins, whose names end in Allocs (DESIGN.md §16).
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
	// Name identifies the pass in findings and timings.
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
	}
}

// PassTime records one pass's wall-clock analysis time.
type PassTime struct {
	Name    string
	Elapsed time.Duration
}

// RunAllTimed runs the given passes over the target. It returns the combined
// findings sorted by position then message, for deterministic output, and
// each pass's wall-clock analysis time in the order the passes ran; CI logs
// them so regressions in engine cost are visible in history.
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
