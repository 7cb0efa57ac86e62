package coverage

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

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
	Syscall  string           `json:"syscall"`
	Arg      string           `json:"arg,omitempty"`
	Class    string           `json:"class,omitempty"`
	Domain   int              `json:"domain"`
	Covered  int              `json:"covered"`
	Counts   map[string]int64 `json:"counts"`
	Untested []string         `json:"untested,omitempty"`
	Extra    map[string]int64 `json:"extra,omitempty"`
}

// SnapshotCombos serializes the flag-combination statistics.
type SnapshotCombos struct {
	All    map[int]int64 `json:"all"`
	Rdonly map[int]int64 `json:"rdonly"`
}

// Snapshot builds the serializable view. Numeric domains are truncated to
// maxNumeric partitions (0 means 34, the Figure 3 window).
func (a *Analyzer) Snapshot(maxNumeric int) *Snapshot {
	if maxNumeric <= 0 {
		maxNumeric = 34
	}
	s := &Snapshot{Analyzed: a.analyzed, Skipped: a.skipped}
	for _, name := range a.Syscalls() {
		spec := a.table.Spec(baseOf(a, name))
		if spec == nil {
			continue
		}
		for _, arg := range spec.TrackedArgs() {
			rep := a.InputReport(name, arg.Name)
			if rep == nil {
				continue
			}
			rep = trimNumericDomain(rep, maxNumeric)
			s.Inputs = append(s.Inputs, snapshotSpace(rep, arg.Class.String()))
		}
		if rep := a.OutputReport(name); rep != nil {
			rep = trimNumericDomain(rep, maxNumeric)
			s.Outputs = append(s.Outputs, snapshotSpace(rep, ""))
		}
	}
	if c := a.combos.stats(); len(c.All) > 0 {
		s.OpenCombos = &SnapshotCombos{All: c.All, Rdonly: c.Rdonly}
	}
	return s
}

func snapshotSpace(rep *Report, class string) SnapshotSpace {
	covered := rep.Covered()
	sp := SnapshotSpace{
		Syscall: rep.Syscall,
		Arg:     rep.Arg,
		Class:   class,
		Domain:  rep.DomainSize(),
		Covered: covered,
		Counts:  make(map[string]int64, covered),
	}
	// One pass fills Counts and Untested (rep.Untested()), each sized once.
	if n := len(rep.Rows) - covered; n > 0 {
		sp.Untested = make([]string, 0, n)
	}
	for _, row := range rep.Rows {
		if row.Count != 0 {
			sp.Counts[row.Label] = row.Count
		} else {
			sp.Untested = append(sp.Untested, row.Label)
		}
	}
	if len(rep.Extra) > 0 {
		sp.Extra = make(map[string]int64, len(rep.Extra))
		for _, row := range rep.Extra {
			sp.Extra[row.Label] = row.Count
		}
	}
	return sp
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
		for label, n := range sp.Counts {
			var ok bool
			if ord := slices.Index(c.labels, label); ord >= 0 {
				c.dense[ord], ok = restoreSum(c.dense[ord], n)
			}
			if !ok {
				return fmt.Errorf("coverage: %s.%s: bad count %q: %d", sp.Syscall, sp.Arg, label, n)
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
		for _, counts := range []map[string]int64{sp.Counts, sp.Extra} {
			for label, n := range counts {
				var ok bool
				if ord := slices.Index(c.out.Domain(), label); ord >= 0 {
					c.dense[ord], ok = restoreSum(c.dense[ord], n)
				} else {
					if c.extra == nil {
						c.extra = make(map[string]int64)
					}
					c.extra[label], ok = restoreSum(c.extra[label], n)
				}
				if !ok {
					return fmt.Errorf("coverage: %s output: bad count %q: %d", sp.Syscall, label, n)
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
	pool := s.Inputs
	if arg == "" {
		pool = s.Outputs
	}
	for i := range pool {
		if pool[i].Syscall == syscall && pool[i].Arg == arg {
			return &pool[i]
		}
	}
	return nil
}

// DiffSnapshot reports the partitions covered by s but not by other — the
// regression-tracking primitive ("this release stopped testing O_SYNC").
func (s *Snapshot) DiffSnapshot(other *Snapshot) []SnapshotDiff {
	var out []SnapshotDiff
	diffPool := func(a, b []SnapshotSpace, isOutput bool) {
		for i := range a {
			sp := &a[i]
			var ob *SnapshotSpace
			arg := sp.Arg
			if isOutput {
				arg = ""
			}
			ob = (&Snapshot{Inputs: b, Outputs: b}).Space(sp.Syscall, arg)
			var lost []string
			for label := range sp.Counts {
				if ob == nil || ob.Counts[label] == 0 {
					lost = append(lost, label)
				}
			}
			if len(lost) > 0 {
				out = append(out, SnapshotDiff{
					Syscall: sp.Syscall, Arg: sp.Arg, OnlyInFirst: sortedCopy(lost),
				})
			}
		}
	}
	diffPool(s.Inputs, other.Inputs, false)
	diffPool(s.Outputs, other.Outputs, true)
	return out
}

// SnapshotDiff lists partitions one snapshot covers that the other misses.
type SnapshotDiff struct {
	Syscall     string   `json:"syscall"`
	Arg         string   `json:"arg,omitempty"`
	OnlyInFirst []string `json:"only_in_first"`
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}
