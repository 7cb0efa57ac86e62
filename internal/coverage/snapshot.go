package coverage

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"iocov/internal/sysspec"
)

// Snapshot is a serializable view of an analyzer's complete state, for
// machine consumption (CI dashboards, longitudinal tracking of a test
// suite's coverage across releases).
type Snapshot struct {
	// Analyzed and Skipped are the event totals.
	Analyzed int64 `json:"analyzed"`
	Skipped  int64 `json:"skipped"`
	// Inputs holds one entry per observed (syscall, argument).
	Inputs []SnapshotSpace `json:"inputs"`
	// Outputs holds one entry per observed syscall output space.
	Outputs []SnapshotSpace `json:"outputs"`
	// OpenCombos is the Table 1 raw data, when opens were observed.
	OpenCombos *SnapshotCombos `json:"open_combos,omitempty"`
}

// SnapshotSpace is one coverage space: its identity, domain size, covered
// count, per-partition frequencies, and untested partitions.
type SnapshotSpace struct {
	Syscall  string   `json:"syscall"`
	Arg      string   `json:"arg,omitempty"`
	Class    string   `json:"class,omitempty"`
	Domain   int      `json:"domain"`
	Covered  int      `json:"covered"`
	Counts   Counts   `json:"counts"`
	Untested []string `json:"untested,omitempty"`
	Extra    Counts   `json:"extra,omitempty"`
}

// SnapshotCombos serializes the flag-combination statistics.
type SnapshotCombos struct {
	All    map[int]int64 `json:"all"`
	Rdonly map[int]int64 `json:"rdonly"`
}

// Snapshot builds the serializable view. A domain longer than maxNumeric
// partitions shows only its first maxNumeric (0 means 34, the Figure 3
// window).
func (a *Analyzer) Snapshot(maxNumeric int) *Snapshot {
	if maxNumeric <= 0 {
		maxNumeric = 34
	}
	return a.snapshot(window(maxNumeric))
}

// window is the Figure 3 window a snapshot applies to every domain: the
// one predicate deciding which ordinals a space shows. Domain, Covered,
// Counts and Untested are all derived from the ordinals it shows.
type window int

// shows reports whether a snapshot shows the partition at ord.
func (w window) shows(ord int) bool { return ord < int(w) }

// spaceSource is one space of a snapshot being built: its header, and the
// analyzer state its rows are read from.
type spaceSource struct {
	sp     SnapshotSpace // Syscall, Arg, Class, Domain and Covered
	output bool
	labels []string // the domain, in ordinal order
	order  []int    // the domain's ordinals in label order
	dense  []int64
	extra  Counts
}

// snapshot renders the analyzer in two passes over its spaces, in syscall
// name order and, within a syscall, its inputs in spec order and then its
// output. The first pass sizes every space; the second fills the counts of
// all spaces from one backing array, walking each domain's precomputed
// label order, and the untested labels from another, walking ordinals.
func (a *Analyzer) snapshot(w window) *Snapshot {
	s := &Snapshot{Analyzed: a.analyzed, Skipped: a.skipped}
	srcs := make([]spaceSource, 0, len(a.inputs)+len(a.outputs))
	for _, name := range a.names {
		spec := a.table.Spec(baseOf(a, name))
		if spec == nil {
			continue
		}
		for i := range spec.Args {
			arg := &spec.Args[i]
			if arg.Class == sysspec.Identifier {
				continue
			}
			if c := a.inputs[argKey{name, arg.Name}]; c != nil {
				srcs = append(srcs, spaceSource{
					sp:     SnapshotSpace{Syscall: name, Arg: arg.Name, Class: arg.Class.String()},
					labels: c.labels, order: c.order, dense: c.dense,
				})
			}
		}
		if c := a.outputs[name]; c != nil {
			srcs = append(srcs, spaceSource{
				sp:     SnapshotSpace{Syscall: name},
				output: true, labels: c.out.Domain(), order: c.out.LabelOrder(), dense: c.dense, extra: c.extra,
			})
		}
	}
	var nIn, nRows, nUntested int
	for i := range srcs {
		src := &srcs[i]
		for ord, n := range src.dense {
			if w.shows(ord) {
				src.sp.Domain++
				if n != 0 {
					src.sp.Covered++
				}
			}
		}
		if !src.output {
			nIn++
		}
		nRows += src.sp.Covered + len(src.extra)
		nUntested += src.sp.Domain - src.sp.Covered
	}
	if nIn > 0 {
		s.Inputs = make([]SnapshotSpace, 0, nIn)
	}
	if len(srcs) > nIn {
		s.Outputs = make([]SnapshotSpace, 0, len(srcs)-nIn)
	}
	rows := make(Counts, 0, nRows)
	untested := make([]string, 0, nUntested)
	for i := range srcs {
		src := &srcs[i]
		sp := src.sp
		from := len(rows)
		for _, ord := range src.order {
			if n := src.dense[ord]; n != 0 && w.shows(ord) {
				rows = append(rows, Row{Label: src.labels[ord], Count: n})
			}
		}
		sp.Counts = rows[from:len(rows):len(rows)]
		if len(src.extra) > 0 {
			from = len(rows)
			rows = append(rows, src.extra...)
			sp.Extra = rows[from:len(rows):len(rows)]
		}
		if sp.Covered < sp.Domain {
			from = len(untested)
			for ord, n := range src.dense {
				if n == 0 && w.shows(ord) {
					untested = append(untested, src.labels[ord])
				}
			}
			sp.Untested = untested[from:len(untested):len(untested)]
		}
		if src.output {
			s.Outputs = append(s.Outputs, sp)
		} else {
			s.Inputs = append(s.Inputs, sp)
		}
	}
	if c := a.combos.stats(); len(c.All) > 0 {
		s.OpenCombos = &SnapshotCombos{All: c.All, Rdonly: c.Rdonly}
	}
	return s
}

// Restore adds a snapshot's counts to the analyzer's dense counters: the
// inverse of Snapshot, so an analyzer restored from a checkpoint merges and
// renders like one that saw the events. Each input label loads at its
// scheme ordinal and each output label at its output-domain ordinal; output
// labels outside the domain, like the Extra section, load as extra errnos.
// OpenCombos and the event totals load as they are. Class, Domain, Covered
// and Untested are derived on render and ignored here.
//
// Restore rejects what this analyzer could not have produced: an unknown
// syscall or argument, an input label outside its domain, an input space
// with an Extra section, any negative count or total (or one that overflows
// the counter), and more O_RDONLY opens than opens for a flag count. On
// error the analyzer holds part of the snapshot and should be discarded.
func (a *Analyzer) Restore(s *Snapshot) error {
	var okA, okS bool
	a.analyzed, okA = restoreSum(a.analyzed, s.Analyzed)
	a.skipped, okS = restoreSum(a.skipped, s.Skipped)
	if !okA || !okS {
		return fmt.Errorf("coverage: bad event totals %d/%d", s.Analyzed, s.Skipped)
	}
	for i := range s.Inputs {
		sp := &s.Inputs[i]
		arg := a.restoreArg(sp.Syscall, sp.Arg)
		if arg == nil || len(sp.Extra) > 0 {
			return fmt.Errorf("coverage: unknown input space %s.%s, or one with extra partitions", sp.Syscall, sp.Arg)
		}
		c := a.inputFor(sp.Syscall, arg)
		for _, r := range sp.Counts {
			var ok bool
			if ord := slices.Index(c.labels, r.Label); ord >= 0 {
				c.dense[ord], ok = restoreSum(c.dense[ord], r.Count)
			}
			if !ok {
				return fmt.Errorf("coverage: %s.%s: bad count %q: %d", sp.Syscall, sp.Arg, r.Label, r.Count)
			}
		}
	}
	for i := range s.Outputs {
		sp := &s.Outputs[i]
		spec := a.restoreSpec(sp.Syscall)
		if spec == nil {
			return fmt.Errorf("coverage: unknown output space %s", sp.Syscall)
		}
		c := a.outputFor(sp.Syscall, spec)
		for _, counts := range [2]Counts{sp.Counts, sp.Extra} {
			for _, r := range counts {
				var ok bool
				if ord := slices.Index(c.out.Domain(), r.Label); ord >= 0 {
					c.dense[ord], ok = restoreSum(c.dense[ord], r.Count)
				} else {
					n := c.extra.at(r.Label)
					*n, ok = restoreSum(*n, r.Count)
				}
				if !ok {
					return fmt.Errorf("coverage: %s output: bad count %q: %d", sp.Syscall, r.Label, r.Count)
				}
			}
		}
	}
	if c := s.OpenCombos; c != nil {
		for _, m := range []struct {
			dst *comboArray
			src map[int]int64
		}{{&a.combos.All, c.All}, {&a.combos.Rdonly, c.Rdonly}} {
			for k, n := range m.src {
				if k < 0 || k >= len(m.dst) {
					return fmt.Errorf("coverage: open combos: %d flags is outside [0, %d)", k, len(m.dst))
				}
				var ok bool
				if m.dst[k], ok = restoreSum(m.dst[k], n); !ok {
					return fmt.Errorf("coverage: open combos: bad count %d: %d", k, n)
				}
			}
		}
	}
	// The O_RDONLY row of Table 1 counts a subset of all opens.
	for k, n := range a.combos.Rdonly {
		if n > a.combos.All[k] {
			return fmt.Errorf("coverage: open combos: %d O_RDONLY opens of %d flags, but %d opens", n, k, a.combos.All[k])
		}
	}
	return nil
}

// restoreSum adds a restored count to a counter; ok is false when the count
// is negative or the sum overflows.
func restoreSum(x, n int64) (sum int64, ok bool) { return x + n, n >= 0 && x+n >= x }

// restoreSpec resolves a snapshot space's syscall name to its spec, or nil
// when this analyzer never names a space that way.
func (a *Analyzer) restoreSpec(name string) *sysspec.Spec {
	spec := a.table.Base(name)
	if spec != nil && a.opts.MergeVariants && spec.Base != name {
		return nil
	}
	return spec
}

// restoreArg resolves a snapshot input space to its tracked argument, or nil
// when this analyzer never counts that argument under that name.
func (a *Analyzer) restoreArg(name, arg string) *sysspec.ArgSpec {
	spec := a.restoreSpec(name)
	if spec == nil {
		return nil
	}
	for i := range spec.Args {
		as := &spec.Args[i]
		if as.Name == arg && as.Class != sysspec.Identifier && (a.opts.MergeVariants || as.ArgAppliesTo(name)) {
			return as
		}
	}
	return nil
}

// LoadSnapshot reads a snapshot back from JSON.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Space finds a space by syscall and arg ("" for output), or nil.
func (s *Snapshot) Space(syscall, arg string) *SnapshotSpace {
	if arg == "" {
		return findSpace(s.Outputs, syscall, arg)
	}
	return findSpace(s.Inputs, syscall, arg)
}

// findSpace finds a space of a pool by syscall and arg, or nil.
func findSpace(pool []SnapshotSpace, syscall, arg string) *SnapshotSpace {
	for i := range pool {
		if pool[i].Syscall == syscall && pool[i].Arg == arg {
			return &pool[i]
		}
	}
	return nil
}

// DiffSnapshot reports the partitions covered by s but not by other — the
// regression-tracking primitive ("this release stopped testing O_SYNC").
// A partition is covered when its count, in Counts or, for an errno
// outside the documented universe, in Extra, is non-zero. Each space's
// labels are listed in sorted order.
func (s *Snapshot) DiffSnapshot(other *Snapshot) []SnapshotDiff {
	var out []SnapshotDiff
	diffPool := func(a, b []SnapshotSpace, isOutput bool) {
		for i := range a {
			sp := &a[i]
			arg := sp.Arg
			if isOutput {
				arg = ""
			}
			ob := findSpace(b, sp.Syscall, arg)
			var lost []string
			for _, r := range mergeCounts(sp.Counts, sp.Extra) {
				if r.Count != 0 && (ob == nil || !ob.covers(r.Label)) {
					lost = append(lost, r.Label)
				}
			}
			if len(lost) > 0 {
				out = append(out, SnapshotDiff{Syscall: sp.Syscall, Arg: sp.Arg, OnlyInFirst: lost})
			}
		}
	}
	diffPool(s.Inputs, other.Inputs, false)
	diffPool(s.Outputs, other.Outputs, true)
	return out
}

// covers reports whether the space counts label, in Counts or in Extra.
func (sp *SnapshotSpace) covers(label string) bool {
	return sp.Counts.Get(label) != 0 || sp.Extra.Get(label) != 0
}

// SnapshotDiff lists partitions one snapshot covers that the other misses.
type SnapshotDiff struct {
	Syscall     string   `json:"syscall"`
	Arg         string   `json:"arg,omitempty"`
	OnlyInFirst []string `json:"only_in_first"`
}
