package coverage

import (
	"fmt"
	"reflect"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/trace"
)

func TestMergeEmpty(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	b := NewAnalyzer(DefaultOptions())
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge of empty analyzers: %v", err)
	}
	if a.Analyzed() != 0 || a.Skipped() != 0 || len(a.Syscalls()) != 0 {
		t.Errorf("empty merge produced state: analyzed=%d skipped=%d syscalls=%v",
			a.Analyzed(), a.Skipped(), a.Syscalls())
	}
}

func TestMergeNil(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(0, 0, 3, sys.OK))
	if err := a.Merge(nil); err != nil {
		t.Fatalf("merge of nil: %v", err)
	}
	if a.Analyzed() != 1 {
		t.Errorf("nil merge changed state: analyzed=%d", a.Analyzed())
	}
}

func TestMergeSelfRejected(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	if err := a.Merge(a); err == nil {
		t.Error("self-merge not rejected")
	}
}

func TestMergeMismatchedOptions(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	b := NewAnalyzer(Options{MergeVariants: false})
	if err := a.Merge(b); err == nil {
		t.Error("mismatched options not rejected")
	}
	c := NewAnalyzer(Options{MergeVariants: true, IdentifierCap: 7})
	if err := a.Merge(c); err == nil {
		t.Error("mismatched caps not rejected")
	}
}

func TestMergeDisjointKeys(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(int64(sys.O_WRONLY|sys.O_CREAT), 0o644, 3, sys.OK))
	b := NewAnalyzer(DefaultOptions())
	b.Add(writeEvent(4096, 4096, sys.OK))
	b.Add(trace.Event{Name: "unlink", Path: "/f", PID: 1})
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Analyzed() != 2 || a.Skipped() != 1 {
		t.Errorf("analyzed/skipped = %d/%d, want 2/1", a.Analyzed(), a.Skipped())
	}
	if c := a.InputReport("open", "flags"); c == nil || c.Count("O_CREAT") != 1 {
		t.Errorf("open flags lost in merge: %+v", c)
	}
	if c := a.InputReport("write", "count"); c == nil || c.Count("2^12") != 1 {
		t.Errorf("write count missing after merge: %+v", c)
	}
	if oc := a.OutputReport("write"); oc == nil || oc.Count("OK:2^12") != 1 {
		t.Errorf("write output missing after merge: %+v", oc)
	}
}

func TestMergeMatchesSerial(t *testing.T) {
	// Splitting one event stream across two analyzers and merging must
	// reproduce the serial analyzer's snapshot exactly.
	events := []trace.Event{
		openEvent(0, 0, 3, sys.OK),
		openEvent(int64(sys.O_RDWR|sys.O_CREAT|sys.O_TRUNC), 0o644, 4, sys.OK),
		openEvent(0, 0, -2, sys.ENOENT),
		writeEvent(0, 0, sys.OK),
		writeEvent(2000, 2000, sys.OK),
		writeEvent(10, 0, sys.ENOSPC),
		withArgs(trace.Event{Name: "lseek", PID: 1, Ret: 0}, nil, numArgs{{"fd", 3}, {"offset", -5}, {"whence", 1}}),
		{Name: "unlink", Path: "/f", PID: 1},
	}
	serial := NewAnalyzer(DefaultOptions())
	serial.AddAll(events)

	a := NewAnalyzer(DefaultOptions())
	a.AddAll(events[:3])
	b := NewAnalyzer(DefaultOptions())
	b.AddAll(events[3:])
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Snapshot(0), serial.Snapshot(0)) {
		t.Error("merged snapshot differs from serial snapshot")
	}
}

func TestMergeIdentifierCapSaturation(t *testing.T) {
	opts := Options{MergeVariants: true, TrackIdentifiers: true, IdentifierCap: 2}
	pathOpen := func(p string) trace.Event {
		return withArgs(trace.Event{Name: "open", Path: p, PID: 1,
			Ret: 3}, strArgs{{"filename", p}}, numArgs{{"flags", 0}, {"mode", 0}})
	}
	a := NewAnalyzer(opts)
	a.Add(pathOpen("/a"))
	a.Add(pathOpen("/b")) // a's retained set is now full
	b := NewAnalyzer(opts)
	b.Add(pathOpen("/b")) // overlaps a's retained set
	b.Add(pathOpen("/c")) // new, but a's cap is saturated
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// /a, /b, /c are three distinct values; /c is not retained but still
	// counts toward cardinality.
	if got := a.IdentifierCardinality("open", "filename"); got != 3 {
		t.Errorf("merged cardinality = %d, want 3", got)
	}
}

func TestMergeCombinationCapSaturation(t *testing.T) {
	opts := Options{MergeVariants: true, TrackCombinations: true, CombinationCap: 2}
	a := NewAnalyzer(opts)
	a.Add(openEvent(0, 0, 3, sys.OK))                                   // O_RDONLY
	a.Add(openEvent(int64(sys.O_WRONLY|sys.O_CREAT), 0o644, 4, sys.OK)) // combo 2: cap full
	b := NewAnalyzer(opts)
	b.Add(openEvent(0, 0, 3, sys.OK))                                             // shared with a
	b.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT|sys.O_TRUNC), 0o644, 5, sys.OK)) // would be a third combo
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.DistinctCombinations("open", "flags"); got != 2 {
		t.Errorf("distinct combos = %d, want 2 (cap)", got)
	}
	rows := a.Combinations("open", "flags")
	if len(rows) != 2 || rows[0].Label != "O_RDONLY" || rows[0].Count != 2 {
		t.Errorf("combo rows after merge = %+v", rows)
	}
}

func TestMergeManyShards(t *testing.T) {
	// Merging N shard analyzers in order equals one serial analyzer over
	// the concatenated stream, whatever N is.
	var events []trace.Event
	for i := 0; i < 40; i++ {
		events = append(events, writeEvent(int64(1)<<uint(i%20), int64(1)<<uint(i%20), sys.OK))
		events = append(events, openEvent(int64(sys.O_WRONLY|sys.O_CREAT), 0o644, 3, sys.OK))
	}
	serial := NewAnalyzer(DefaultOptions())
	serial.AddAll(events)
	for _, shards := range []int{1, 3, 8} {
		merged := NewAnalyzer(DefaultOptions())
		for s := 0; s < shards; s++ {
			sh := NewAnalyzer(DefaultOptions())
			for i := s; i < len(events); i += shards {
				sh.Add(events[i])
			}
			if err := merged.Merge(sh); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(merged.Snapshot(0), serial.Snapshot(0)) {
			t.Errorf("shards=%d: merged snapshot differs from serial", shards)
		}
	}
}

func TestMergeErrorMentionsOptions(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	b := NewAnalyzer(Options{MergeVariants: true, ExtendedSyscalls: true})
	err := a.Merge(b)
	if err == nil {
		t.Fatal("extended-table merge not rejected")
	}
	if msg := fmt.Sprint(err); msg == "" {
		t.Error("empty error message")
	}
}
