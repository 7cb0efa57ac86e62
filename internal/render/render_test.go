package render

import (
	"strings"
	"testing"

	"iocov/internal/coverage"
	"iocov/internal/sys"
	"iocov/internal/trace"
)

func analyzerWithData(t *testing.T) *coverage.Analyzer {
	t.Helper()
	a := coverage.NewAnalyzer(coverage.DefaultOptions())
	open := func(path string, flags, mode, ret int64, err sys.Errno) {
		ev := trace.Event{Name: "open", Path: path, PID: 1, Ret: ret, Err: err}
		ev.AddStr("filename", path)
		ev.AddArg("flags", flags)
		ev.AddArg("mode", mode)
		a.Add(ev)
	}
	open("/f", int64(sys.O_RDWR|sys.O_CREAT), 0o644, 3, sys.OK)
	open("/g", 0, 0, -int64(sys.ENOENT), sys.ENOENT)
	return a
}

func TestComparison(t *testing.T) {
	a := analyzerWithData(t)
	var sb strings.Builder
	Comparison(&sb, "Test Figure", []Series{
		{Name: "suiteA", Report: a.InputReport("open", "flags")},
	})
	out := sb.String()
	for _, want := range []string{
		"Test Figure", "O_RDWR", "O_CREAT", "suiteA",
		"partitions covered", "untested:", "O_SYNC",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Log-scale bars: covered rows have hashes, untested rows none.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "O_TMPFILE") && strings.Contains(line, "#") {
			t.Errorf("untested row has a bar: %q", line)
		}
	}
}

func TestComparisonEmptySeries(t *testing.T) {
	var sb strings.Builder
	Comparison(&sb, "Empty", nil)
	if !strings.Contains(sb.String(), "Empty") {
		t.Error("title missing")
	}
}

func TestComboTableLayout(t *testing.T) {
	a := analyzerWithData(t)
	var sb strings.Builder
	ComboTable(&sb, "Table X", []struct {
		Name string
		Rows []coverage.ComboRow
	}{
		{Name: "suiteA", Rows: a.ComboTable(6)},
	}, 6)
	out := sb.String()
	if !strings.Contains(out, "suiteA: all flags") || !strings.Contains(out, "suiteA: O_RDONLY") {
		t.Errorf("rows missing:\n%s", out)
	}
	// One open with 2 flags, one with 1 flag: 50% in columns 1 and 2.
	if !strings.Contains(out, "50.0") {
		t.Errorf("percentages wrong:\n%s", out)
	}
}

func TestTCDSweepOutput(t *testing.T) {
	var sb strings.Builder
	low := []int64{10, 10, 0}
	high := []int64{100000, 100000, 100000}
	TCDSweep(&sb, "Sweep", [2]string{"low", "high"}, [2][]int64{low, high}, 1_000_000)
	out := sb.String()
	if !strings.Contains(out, "crossover: high overtakes low at target") {
		t.Errorf("crossover line missing:\n%s", out)
	}
	if !strings.Contains(out, "<- low better") || !strings.Contains(out, "<- high better") {
		t.Errorf("winner markers missing:\n%s", out)
	}
}

func TestTCDSweepNoCrossover(t *testing.T) {
	var sb strings.Builder
	a := []int64{50, 50}
	b := []int64{100000, 100000}
	// Within a tiny range b never catches a.
	TCDSweep(&sb, "Sweep", [2]string{"a", "b"}, [2][]int64{a, b}, 10)
	if !strings.Contains(sb.String(), "no crossover") {
		t.Errorf("expected no-crossover message:\n%s", sb.String())
	}
}

func TestLogBar(t *testing.T) {
	if logBar(0, 100) != "" {
		t.Error("zero count should have no bar")
	}
	if logBar(100, 100) == "" {
		t.Error("max count should have a bar")
	}
	if len(logBar(1, 1_000_000)) == 0 {
		t.Error("tiny nonzero count should still show one mark")
	}
	if len(logBar(1_000_000, 1_000_000)) > barWidth {
		t.Error("bar exceeds width")
	}
}
