package coverage

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"iocov/internal/partition"
	"iocov/internal/sys"
	"iocov/internal/trace"
)

func snapshotFixture(t *testing.T) *Snapshot {
	t.Helper()
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT), 0o644, 3, sys.OK))
	a.Add(openEvent(0, 0, -2, sys.ENOENT))
	a.Add(writeEvent(4096, 4096, sys.OK))
	return a.Snapshot(0)
}

func TestSnapshotContents(t *testing.T) {
	s := snapshotFixture(t)
	if s.Analyzed != 3 {
		t.Errorf("analyzed = %d", s.Analyzed)
	}
	flags := s.Space("open", "flags")
	if flags == nil {
		t.Fatal("open.flags space missing")
	}
	if flags.Counts["O_CREAT"] != 1 || flags.Counts["O_RDONLY"] != 1 {
		t.Errorf("flag counts = %v", flags.Counts)
	}
	if flags.Covered != 3 || flags.Domain != 21 {
		t.Errorf("covered/domain = %d/%d", flags.Covered, flags.Domain)
	}
	out := s.Space("open", "")
	if out == nil || out.Counts["ENOENT"] != 1 || out.Counts["OK"] != 1 {
		t.Errorf("open outputs = %+v", out)
	}
	if s.OpenCombos == nil || s.OpenCombos.All[2] != 1 || s.OpenCombos.All[1] != 1 {
		t.Errorf("combos = %+v", s.OpenCombos)
	}
	// Zero-count partitions are omitted from Counts but present in the
	// untested list.
	if _, ok := flags.Counts["O_SYNC"]; ok {
		t.Error("zero count serialized")
	}
	found := false
	for _, u := range flags.Untested {
		if u == "O_SYNC" {
			found = true
		}
	}
	if !found {
		t.Error("O_SYNC missing from untested")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := snapshotFixture(t)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Analyzed != s.Analyzed || len(back.Inputs) != len(s.Inputs) || len(back.Outputs) != len(s.Outputs) {
		t.Errorf("round trip changed shape: %+v", back)
	}
	if back.Space("open", "flags").Counts["O_CREAT"] != 1 {
		t.Error("counts lost in round trip")
	}
}

func TestSnapshotDiff(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT|sys.O_SYNC), 0o644, 3, sys.OK))
	a.Add(openEvent(0, 0, -2, sys.ENOENT))
	b := NewAnalyzer(DefaultOptions())
	b.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT), 0o644, 3, sys.OK))

	diffs := a.Snapshot(0).DiffSnapshot(b.Snapshot(0))
	var flagDiff, outDiff *SnapshotDiff
	for i := range diffs {
		switch {
		case diffs[i].Syscall == "open" && diffs[i].Arg == "flags":
			flagDiff = &diffs[i]
		case diffs[i].Syscall == "open" && diffs[i].Arg == "":
			outDiff = &diffs[i]
		}
	}
	if flagDiff == nil {
		t.Fatal("no flags diff")
	}
	want := map[string]bool{"O_SYNC": true, "O_RDONLY": true}
	for _, l := range flagDiff.OnlyInFirst {
		if !want[l] {
			t.Errorf("unexpected diff label %s", l)
		}
		delete(want, l)
	}
	if len(want) != 0 {
		t.Errorf("missing diff labels: %v", want)
	}
	if outDiff == nil {
		t.Fatal("no output diff")
	}
	// b never failed an open, so ENOENT is only-in-first.
	foundENOENT := false
	for _, l := range outDiff.OnlyInFirst {
		if l == "ENOENT" {
			foundENOENT = true
		}
	}
	if !foundENOENT {
		t.Errorf("output diff = %v", outDiff.OnlyInFirst)
	}
	// Symmetric direction: b covers nothing a doesn't.
	if diffs := b.Snapshot(0).DiffSnapshot(a.Snapshot(0)); len(diffs) != 0 {
		t.Errorf("reverse diff = %v", diffs)
	}
}

func TestSnapshotNumericTruncation(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(writeEvent(1, 1, sys.OK))
	s := a.Snapshot(10)
	wc := s.Space("write", "count")
	if wc.Domain != 10 {
		t.Errorf("truncated domain = %d, want 10", wc.Domain)
	}
}

// TestRestoreRoundTrip: an analyzer restored from another's snapshot renders
// the same bytes, with variant merging on and off. The 2^40 write lies past
// the Figure 3 window, so neither side shows it.
func TestRestoreRoundTrip(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), {}} {
		a := NewAnalyzer(opts)
		a.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT|sys.O_TRUNC), 0o600, 5, sys.OK))
		a.Add(openEvent(0, 0, -2, sys.ENOENT))
		a.Add(withArgs(trace.Event{Name: "openat", PID: 1, Ret: 3}, nil, numArgs{{"flags", 0}, {"mode", 0}}))
		a.Add(withArgs(trace.Event{Name: "pread64", PID: 1, Ret: 10}, nil, numArgs{{"fd", 3}, {"count", 10}, {"pos", 5}}))
		a.Add(writeEvent(1<<40, 1<<40, sys.OK))
		a.Add(writeEvent(8, -int64(sys.EACCES), sys.EACCES)) // undocumented: Extra
		a.Add(trace.Event{Name: "bogus_syscall", PID: 1})
		want := snapshotBytes(t, a.Snapshot(0))

		restored := NewAnalyzer(opts)
		if err := restored.Restore(a.Snapshot(0)); err != nil {
			t.Fatalf("Restore(%+v): %v", opts, err)
		}
		if got := snapshotBytes(t, restored.Snapshot(0)); !bytes.Equal(got, want) {
			t.Errorf("restored snapshot differs (%+v)\n got: %s\nwant: %s", opts, got, want)
		}
	}
}

// corruptCheckpoints are snapshots no analyzer with the default options
// could have written; Restore must reject each. The server's startup test
// and the fuzz target's seeds reuse them.
var corruptCheckpoints = []string{
	`{"inputs":[{"syscall":"open","arg":"flags","domain":-3,"counts":{"O_BOGUS":5}}]}`,
	`{"inputs":[{"syscall":"no_such_call","arg":"flags","counts":{"O_RDONLY":-7}}]}`,
	`{"analyzed":-4,"outputs":[{"syscall":"open","counts":{"OK":-9}}]}`,
	`{"inputs":[{"syscall":"open","arg":"no_such_arg","counts":{}}]}`,
	`{"inputs":[{"syscall":"open","arg":"filename","counts":{}}]}`,
	`{"inputs":[{"syscall":"openat","arg":"flags","counts":{"O_RDONLY":1}}]}`,
	`{"inputs":[{"syscall":"open","arg":"flags","counts":{"O_RDONLY":-1}}]}`,
	`{"inputs":[{"syscall":"open","arg":"flags","counts":{},"extra":{"O_BOGUS":1}}]}`,
	`{"outputs":[{"syscall":"no_such_call","counts":{"OK":1}}]}`,
	`{"outputs":[{"syscall":"write","extra":{"EACCES":-1}}]}`,
	`{"skipped":-1}`,
	`{"open_combos":{"all":{"1":1},"rdonly":{"1":-1}}}`,
	`{"open_combos":{"all":{"1":1},"rdonly":{"1":2}}}`,
	`{"open_combos":{"all":{"-1":1},"rdonly":{}}}`,
	`{"open_combos":{"all":{"` + strconv.Itoa(partition.MaxFlagComboSize+1) + `":1},"rdonly":{}}}`,
	`{"open_combos":{"all":{"1":1},"rdonly":{"-3":0}}}`,
	`{"outputs":[{"syscall":"open","counts":{"OK":` + strconv.FormatInt(math.MaxInt64, 10) + `}},{"syscall":"open","counts":{"OK":1}}]}`,
}

func TestRestoreRejectsCorrupt(t *testing.T) {
	for _, body := range corruptCheckpoints {
		snap, err := LoadSnapshot(bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("LoadSnapshot(%s): %v", body, err)
		}
		if err := NewAnalyzer(DefaultOptions()).Restore(snap); err == nil {
			t.Errorf("Restore accepted %s", body)
		}
	}
}
