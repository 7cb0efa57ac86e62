package coverage_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"iocov/internal/coverage"
	"iocov/internal/harness"
	"iocov/internal/sysspec"
)

// trimNumericDomain keeps a report's first maxRows rows, the Figure 3
// window; maxRows <= 0 keeps them all.
func trimNumericDomain(r *coverage.Report, maxRows int) *coverage.Report {
	if maxRows > 0 && len(r.Rows) > maxRows {
		out := *r
		out.Rows = r.Rows[:maxRows]
		return &out
	}
	return r
}

// referenceSpaces walks an analyzer's spaces the way the snapshot did
// before it read the dense counters itself: every observed syscall in
// sorted order, its tracked arguments' InputReports in spec order, then
// its OutputReport, each trimmed to the window.
func referenceSpaces(a *coverage.Analyzer, maxNumeric int, visit func(rep *coverage.Report, class string, output bool)) {
	table := sysspec.NewTable()
	for _, name := range a.Syscalls() {
		spec := table.Base(name)
		for _, arg := range spec.TrackedArgs() {
			if rep := a.InputReport(name, arg.Name); rep != nil {
				visit(trimNumericDomain(rep, maxNumeric), arg.Class.String(), false)
			}
		}
		if rep := a.OutputReport(name); rep != nil {
			visit(trimNumericDomain(rep, maxNumeric), "", true)
		}
	}
}

// byLabel sorts rows by label, the order a snapshot lists its counts in.
func byLabel(rows []coverage.Row) coverage.Counts {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Label < rows[j].Label })
	return rows
}

// referenceSnapshot is Snapshot(maxNumeric) built from the reports.
func referenceSnapshot(a *coverage.Analyzer, maxNumeric int) *coverage.Snapshot {
	s := &coverage.Snapshot{Analyzed: a.Analyzed(), Skipped: a.Skipped()}
	referenceSpaces(a, maxNumeric, func(rep *coverage.Report, class string, output bool) {
		sp := coverage.SnapshotSpace{
			Syscall: rep.Syscall, Arg: rep.Arg, Class: class,
			Domain: rep.DomainSize(), Covered: rep.Covered(), Counts: coverage.Counts{},
		}
		for _, row := range rep.Rows {
			if row.Count != 0 {
				sp.Counts = append(sp.Counts, row)
			} else {
				sp.Untested = append(sp.Untested, row.Label)
			}
		}
		sp.Counts = byLabel(sp.Counts)
		if len(rep.Extra) > 0 {
			sp.Extra = byLabel(append([]coverage.Row(nil), rep.Extra...))
		}
		if output {
			s.Outputs = append(s.Outputs, sp)
		} else {
			s.Inputs = append(s.Inputs, sp)
		}
	})
	if c := a.Combos(); len(c.All) > 0 {
		s.OpenCombos = &coverage.SnapshotCombos{All: c.All, Rdonly: c.Rdonly}
	}
	return s
}

// referenceUntested is UntestedAll(maxNumeric) built from the reports.
func referenceUntested(a *coverage.Analyzer, maxNumeric int) []coverage.UntestedSummary {
	var out []coverage.UntestedSummary
	referenceSpaces(a, maxNumeric, func(rep *coverage.Report, _ string, _ bool) {
		if labels := rep.Untested(); len(labels) > 0 {
			out = append(out, coverage.UntestedSummary{Syscall: rep.Syscall, Arg: rep.Arg, Labels: labels})
		}
	})
	return out
}

// TestSnapshotMatchesReports holds the snapshot, which reads the dense
// counters in each domain's label order, to the report path it replaced:
// for both suites and several seeds, every space equals the one built
// from InputReport/OutputReport and the trimmed window, at the default
// window, a narrower one and a wider one. UntestedAll, which reads the
// snapshot's Untested lists, is held to the reports' Untested too.
func TestSnapshotMatchesReports(t *testing.T) {
	for _, suite := range []string{harness.SuiteXfstests, harness.SuiteCrashMonkey} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", suite, seed), func(t *testing.T) {
				a, err := harness.Run(suite, 0.01, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, window := range []int{0, 10, 1000} {
					want := referenceSnapshot(a, window)
					if window == 0 {
						want = referenceSnapshot(a, 34)
					}
					got := a.Snapshot(window)
					if len(got.Inputs) != len(want.Inputs) || len(got.Outputs) != len(want.Outputs) {
						t.Fatalf("window %d: %d+%d spaces, reports give %d+%d", window,
							len(got.Inputs), len(got.Outputs), len(want.Inputs), len(want.Outputs))
					}
					for i, pool := range [][2][]coverage.SnapshotSpace{{got.Inputs, want.Inputs}, {got.Outputs, want.Outputs}} {
						for j := range pool[0] {
							if !reflect.DeepEqual(pool[0][j], pool[1][j]) {
								t.Fatalf("window %d, pool %d, space %d:\n got: %+v\nwant: %+v", window, i, j, pool[0][j], pool[1][j])
							}
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("window %d: snapshot totals or combos differ from the reports'", window)
					}
				}
				for _, window := range []int{34, 0} {
					if got, want := a.UntestedAll(window), referenceUntested(a, window); !reflect.DeepEqual(got, want) {
						t.Fatalf("UntestedAll(%d) = %v\nreports give %v", window, got, want)
					}
				}
			})
		}
	}
}
