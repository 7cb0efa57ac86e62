// Package render draws the paper's figures as aligned text: log-scale bar
// charts for per-partition frequencies (Figures 2-4), the Table 1 layout,
// and the Figure 5 TCD sweep.
package render

import (
	"fmt"
	"io"
	"math"
	"strings"

	"iocov/internal/coverage"
	"iocov/internal/metrics"
)

// barWidth is the printable width of a frequency bar.
const barWidth = 40

// logBar renders n on a log10 scale relative to max.
func logBar(n, max int64) string {
	if n <= 0 || max <= 0 {
		return ""
	}
	frac := math.Log10(float64(n)+1) / math.Log10(float64(max)+1)
	w := int(frac * barWidth)
	if w < 1 {
		w = 1
	}
	return strings.Repeat("#", w)
}

// Series is one test suite's frequencies over a shared partition domain.
type Series struct {
	Name   string
	Report *coverage.Report
}

// Comparison prints a two-series log-scale comparison chart, one row per
// partition — the textual form of Figures 2-4.
func Comparison(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	if len(series) == 0 {
		return
	}
	var max int64 = 1
	for _, s := range series {
		if m := s.Report.MaxCount(); m > max {
			max = m
		}
	}
	labelW := 5
	for _, row := range series[0].Report.Rows {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
	}
	nameW := 0
	for _, s := range series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for i, row := range series[0].Report.Rows {
		for si, s := range series {
			label := ""
			if si == 0 {
				label = row.Label
			}
			count := s.Report.Rows[i].Count
			fmt.Fprintf(w, "%-*s  %-*s %10d  %s\n",
				labelW, label, nameW, s.Name, count, logBar(count, max))
		}
	}
	for _, s := range series {
		fmt.Fprintf(w, "%-*s: %d/%d partitions covered, untested: %s\n",
			nameW, s.Name, s.Report.Covered(), s.Report.DomainSize(),
			joinOrNone(s.Report.Untested()))
		for _, extra := range s.Report.Extra {
			// Observed outside the declared domain — e.g. an errno the man
			// page does not document, which the paper notes can happen.
			fmt.Fprintf(w, "%-*s  outside domain: %s = %d\n", nameW, s.Name, extra.Label, extra.Count)
		}
	}
	fmt.Fprintln(w)
}

func joinOrNone(labels []string) string {
	if len(labels) == 0 {
		return "(none)"
	}
	return strings.Join(labels, " ")
}

// ComboTable prints Table 1: percentage of opens using 1..K flags together.
func ComboTable(w io.Writer, title string, suites []struct {
	Name string
	Rows []coverage.ComboRow
}, maxK int) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-32s", "Test Suite / % for #flags")
	for k := 1; k <= maxK; k++ {
		fmt.Fprintf(w, "%7d", k)
	}
	fmt.Fprintln(w)
	for _, s := range suites {
		for _, row := range s.Rows {
			fmt.Fprintf(w, "%-32s", s.Name+": "+row.Name)
			for k := 0; k < maxK; k++ {
				fmt.Fprintf(w, "%7.1f", row.Pct[k])
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

// TCDSweep prints the Figure 5 sweep: TCD for each suite over uniform
// targets, plus the crossover.
func TCDSweep(w io.Writer, title string, names [2]string, freqs [2][]int64, maxTarget int64) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%12s  %12s  %12s\n", "target", names[0], names[1])
	a := metrics.Sweep(freqs[0], maxTarget, 1)
	b := metrics.Sweep(freqs[1], maxTarget, 1)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		marker := ""
		if b[i].TCD <= a[i].TCD {
			marker = "  <- " + names[1] + " better"
		} else {
			marker = "  <- " + names[0] + " better"
		}
		fmt.Fprintf(w, "%12d  %12.3f  %12.3f%s\n", a[i].Target, a[i].TCD, b[i].TCD, marker)
	}
	if cross, found := metrics.Crossover(freqs[0], freqs[1], maxTarget); found {
		fmt.Fprintf(w, "crossover: %s overtakes %s at target T = %d (paper: T ≈ 5,237 at full scale)\n",
			names[1], names[0], cross)
	} else {
		fmt.Fprintf(w, "no crossover within [1, %d]\n", maxTarget)
	}
	fmt.Fprintln(w)
}
