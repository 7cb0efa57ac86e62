package coverage

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
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
	if flags.Counts.Get("O_CREAT") != 1 || flags.Counts.Get("O_RDONLY") != 1 {
		t.Errorf("flag counts = %v", flags.Counts)
	}
	if flags.Covered != 3 || flags.Domain != 21 {
		t.Errorf("covered/domain = %d/%d", flags.Covered, flags.Domain)
	}
	out := s.Space("open", "")
	if out == nil || out.Counts.Get("ENOENT") != 1 || out.Counts.Get("OK") != 1 {
		t.Errorf("open outputs = %+v", out)
	}
	if s.OpenCombos == nil || s.OpenCombos.All[2] != 1 || s.OpenCombos.All[1] != 1 {
		t.Errorf("combos = %+v", s.OpenCombos)
	}
	// Zero-count partitions are omitted from Counts but present in the
	// untested list.
	if _, ok := flags.Counts.search("O_SYNC"); ok {
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
	if back.Space("open", "flags").Counts.Get("O_CREAT") != 1 {
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

// TestSnapshotDiffZeroAndExtra: a zero count is not coverage, so a loaded
// snapshot's explicit zero is never reported lost; and an errno outside
// the documented universe, which a snapshot keeps in Extra, is coverage a
// diff reports lost and sees kept, in either section of the other space.
func TestSnapshotDiffZeroAndExtra(t *testing.T) {
	load := func(body string) *Snapshot {
		t.Helper()
		s, err := LoadSnapshot(strings.NewReader(body))
		if err != nil {
			t.Fatalf("LoadSnapshot(%s): %v", body, err)
		}
		return s
	}
	zero := load(`{"inputs":[{"syscall":"open","arg":"flags","counts":{"O_SYNC":0,"O_CREAT":1}}],
		"outputs":[{"syscall":"write","counts":{"OK":0},"extra":{"EACCES":0}}]}`)
	if d := zero.DiffSnapshot(&Snapshot{}); !reflect.DeepEqual(d, []SnapshotDiff{{Syscall: "open", Arg: "flags", OnlyInFirst: []string{"O_CREAT"}}}) {
		t.Errorf("zero counts diffed against an empty snapshot: %+v, want only O_CREAT lost", d)
	}

	undocumented := NewAnalyzer(DefaultOptions())
	undocumented.Add(writeEvent(8, -int64(sys.EACCES), sys.EACCES))
	documented := NewAnalyzer(DefaultOptions())
	documented.Add(writeEvent(8, 8, sys.OK))
	lost := undocumented.Snapshot(0).DiffSnapshot(documented.Snapshot(0))
	if want := []SnapshotDiff{{Syscall: "write", OnlyInFirst: []string{"EACCES"}}}; !reflect.DeepEqual(lost, want) {
		t.Errorf("lost extra errno: %+v, want %+v", lost, want)
	}
	documented.Add(writeEvent(8, -int64(sys.EACCES), sys.EACCES))
	if d := undocumented.Snapshot(0).DiffSnapshot(documented.Snapshot(0)); len(d) != 0 {
		t.Errorf("extra errno kept in Extra reported lost: %+v", d)
	}
	inCounts := load(`{"inputs":[{"syscall":"write","arg":"count","counts":{"2^3":1}}],
		"outputs":[{"syscall":"write","counts":{"EACCES":4}}]}`)
	if d := undocumented.Snapshot(0).DiffSnapshot(inCounts); len(d) != 0 {
		t.Errorf("extra errno kept in Counts reported lost: %+v", d)
	}
	if d := inCounts.DiffSnapshot(undocumented.Snapshot(0)); len(d) != 0 {
		t.Errorf("errno kept in Extra reported lost: %+v", d)
	}
}

// TestLoadSnapshotCounts: the counts of a loaded snapshot read like
// encoding/json's map[string]int64, the oracle (the last of duplicate keys
// wins, invalid UTF-8 becomes U+FFFD, null is nil and {} is empty), and
// come out as rows sorted by label, whatever order the keys came in.
func TestLoadSnapshotCounts(t *testing.T) {
	body := `{"inputs":[
		{"syscall":"open","arg":"flags","counts":{"O_WRONLY":1,"O_CREAT":2,"O_WRONLY":3,"INVALID":4}},
		{"syscall":"open","arg":"mode","counts":null},
		{"syscall":"lseek","arg":"whence","counts":{}},
		{"syscall":"lseek","arg":"offset"}],
	"outputs":[{"syscall":"write","counts":{"OK:2^3":1,"OK:2^10":2},"extra":{"EACCES":1,"E2BIG":2,"EACCES":5}}]}`
	body = strings.Replace(body, "INVALID", "\xff", 1)
	s, err := LoadSnapshot(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var m mirrorSnapshot
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	for i, pool := range [2][]SnapshotSpace{s.Inputs, s.Outputs} {
		mpool := [2][]mirrorSpace{m.Inputs, m.Outputs}[i]
		for j, sp := range pool {
			for _, c := range []struct {
				got  Counts
				want map[string]int64
			}{{sp.Counts, mpool[j].Counts}, {sp.Extra, mpool[j].Extra}} {
				if want := rowsOf(c.want); !reflect.DeepEqual(c.got, want) {
					t.Errorf("%s.%s: rows %#v, encoding/json's map gives %#v", sp.Syscall, sp.Arg, c.got, want)
				}
			}
		}
	}
	if got := s.Inputs[0].Counts; !reflect.DeepEqual(got, Counts{{"O_CREAT", 2}, {"O_WRONLY", 3}, {"�", 4}}) {
		t.Errorf("duplicate and unsorted keys: %v", got)
	}
	if s.Inputs[1].Counts != nil || s.Inputs[2].Counts == nil || len(s.Inputs[2].Counts) != 0 || s.Inputs[3].Counts != nil {
		t.Errorf("null, {} and absent counts: %#v, %#v, %#v", s.Inputs[1].Counts, s.Inputs[2].Counts, s.Inputs[3].Counts)
	}
	checkAgainstOracle(t, s)
	for _, bad := range []string{`{"inputs":[{"counts":[1]}]}`, `{"inputs":[{"counts":{"a":1.5}}]}`, `{"outputs":[{"extra":"x"}]}`} {
		if _, err := LoadSnapshot(strings.NewReader(bad)); err == nil {
			t.Errorf("LoadSnapshot accepted %s", bad)
		}
	}
}
