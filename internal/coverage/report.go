package coverage

import (
	"math"
	"slices"
)

// Row is one partition's frequency in a report.
type Row struct {
	Label string
	Count int64
}

// Report is the coverage of one argument or output space over a partition
// domain.
type Report struct {
	// Syscall and Arg identify the space ("" Arg for output reports).
	Syscall string
	Arg     string
	// Rows lists every domain partition in canonical order with its count.
	Rows []Row
	// Extra lists observed partitions outside the declared domain (e.g. an
	// errno absent from the man page, which the paper notes can happen
	// because man pages lag the implementation).
	Extra []Row
}

// Covered returns how many domain partitions have a non-zero count.
func (r *Report) Covered() int {
	n := 0
	for _, row := range r.Rows {
		if row.Count != 0 {
			n++
		}
	}
	return n
}

// DomainSize returns the number of domain partitions.
func (r *Report) DomainSize() int { return len(r.Rows) }

// Fraction returns covered/domain, the headline coverage number.
func (r *Report) Fraction() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	return float64(r.Covered()) / float64(len(r.Rows))
}

// Untested returns the labels of domain partitions with zero count — the
// actionable output the paper argues code coverage cannot provide.
func (r *Report) Untested() []string {
	var out []string
	for _, row := range r.Rows {
		if row.Count == 0 {
			out = append(out, row.Label)
		}
	}
	return out
}

// Frequencies returns the counts in domain order, for the TCD metric.
func (r *Report) Frequencies() []int64 {
	out := make([]int64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.Count
	}
	return out
}

// Labels returns the domain labels in order.
func (r *Report) Labels() []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.Label
	}
	return out
}

// MaxCount returns the largest row count.
func (r *Report) MaxCount() int64 {
	var m int64
	for _, row := range r.Rows {
		if row.Count > m {
			m = row.Count
		}
	}
	return m
}

// TrimZeroTail drops trailing all-zero rows beyond the last non-zero one,
// keeping at least min rows; figure rendering uses it so a 64-bucket numeric
// domain prints only the meaningful prefix.
func (r *Report) TrimZeroTail(min int) *Report {
	last := min
	for i, row := range r.Rows {
		if row.Count > 0 && i+1 > last {
			last = i + 1
		}
	}
	if last > len(r.Rows) {
		last = len(r.Rows)
	}
	out := *r
	out.Rows = r.Rows[:last]
	return &out
}

// Count returns one partition's frequency: its row's count, else its Extra
// count, else 0.
func (r *Report) Count(label string) int64 {
	for _, rows := range [][]Row{r.Rows, r.Extra} {
		for _, row := range rows {
			if row.Label == label {
				return row.Count
			}
		}
	}
	return 0
}

// InputReport builds the report for one argument. A nil report means the
// argument was never observed (syscall never called).
func (a *Analyzer) InputReport(syscall, arg string) *Report {
	c := a.inputs[argKey{syscall, arg}]
	if c == nil {
		return nil
	}
	return buildReport(syscall, arg, c.labels, c.dense, nil)
}

// OutputReport builds the report for one syscall's output space, or nil
// when the syscall was never observed.
func (a *Analyzer) OutputReport(syscall string) *Report {
	c := a.outputs[syscall]
	if c == nil {
		return nil
	}
	return buildReport(syscall, "", c.out.Domain(), c.dense, c.extra)
}

// buildReport reads one space's dense counters, in domain order, and
// copies its extra counts, in label order.
func buildReport(syscall, arg string, domain []string, dense []int64, extra Counts) *Report {
	r := &Report{Syscall: syscall, Arg: arg, Rows: make([]Row, len(domain)), Extra: slices.Clone(extra)}
	for ord, label := range domain {
		r.Rows[ord] = Row{Label: label, Count: dense[ord]}
	}
	return r
}

// ComboRow is one row of Table 1: the percentage of opens that used k flags
// together, for k = 1..Max.
type ComboRow struct {
	// Name labels the row ("all flags" or "O_RDONLY").
	Name string
	// Pct[k] is the percentage of opens combining exactly k+1 flags.
	Pct []float64
	// Total is the number of opens the row is computed over.
	Total int64
}

// ComboTable renders the flag-combination statistics as Table 1 rows, with
// maxK columns (the paper uses 6, the largest combination either suite
// produced).
func (a *Analyzer) ComboTable(maxK int) []ComboRow {
	build := func(name string, m *comboArray) ComboRow {
		var total int64
		for _, n := range m {
			total += n
		}
		row := ComboRow{Name: name, Pct: make([]float64, maxK), Total: total}
		if total == 0 {
			return row
		}
		// Percentages folding into the overflow column are summed in
		// ascending k: float addition is not associative, so any other
		// order could render different final bits for the same histogram.
		for k, n := range m {
			if n == 0 {
				continue
			}
			idx := k - 1
			if idx < 0 {
				continue
			}
			if idx >= maxK {
				idx = maxK - 1
			}
			row.Pct[idx] += 100 * float64(n) / float64(total)
		}
		return row
	}
	return []ComboRow{
		build("all flags", &a.combos.All),
		build("O_RDONLY", &a.combos.Rdonly),
	}
}

// MaxComboSize returns the largest number of flags combined in any open.
func (a *Analyzer) MaxComboSize() int {
	for k := len(a.combos.All) - 1; k > 0; k-- {
		if a.combos.All[k] != 0 {
			return k
		}
	}
	return 0
}

// UntestedSummary lists, for every observed syscall, the untested input and
// output partitions. Numeric domains are trimmed to maxNumeric buckets so
// the summary stays readable (the full 2^63 tail is untestable in practice).
type UntestedSummary struct {
	Syscall string
	Arg     string // "" for the output space
	Labels  []string
}

// UntestedAll produces the untested-partition summary across every tracked
// space, in deterministic order: the Untested lists of the snapshot with
// the same window (maxNumeric <= 0 shows every partition).
func (a *Analyzer) UntestedAll(maxNumeric int) []UntestedSummary {
	w := window(maxNumeric)
	if maxNumeric <= 0 {
		w = math.MaxInt
	}
	s := a.snapshot(w)
	var out []UntestedSummary
	add := func(sp *SnapshotSpace) {
		if len(sp.Untested) > 0 {
			out = append(out, UntestedSummary{Syscall: sp.Syscall, Arg: sp.Arg, Labels: sp.Untested})
		}
	}
	// Both pools are in syscall order; each syscall's inputs precede its
	// output.
	in := s.Inputs
	for i := range s.Outputs {
		for len(in) > 0 && in[0].Syscall <= s.Outputs[i].Syscall {
			add(&in[0])
			in = in[1:]
		}
		add(&s.Outputs[i])
	}
	for i := range in {
		add(&in[i])
	}
	return out
}

// baseOf maps an analyzer syscall name back to its base spec name (identity
// under merging; variant lookup otherwise).
func baseOf(a *Analyzer, name string) string {
	if s := a.table.Spec(name); s != nil {
		return name
	}
	if s := a.table.Base(name); s != nil {
		return s.Base
	}
	return name
}
