package coverage

import (
	"testing"

	"iocov/internal/sys"
	"iocov/internal/trace"
)

func TestCombinationTracking(t *testing.T) {
	a := NewAnalyzer(Options{MergeVariants: true, TrackCombinations: true})
	a.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT|sys.O_TRUNC), 0o644, 3, sys.OK))
	a.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT|sys.O_TRUNC), 0o644, 4, sys.OK))
	a.Add(openEvent(0, 0, 5, sys.OK))
	rows := a.Combinations("open", "flags")
	if len(rows) != 2 {
		t.Fatalf("combinations = %v", rows)
	}
	if rows[0].Label != "O_RDWR|O_CREAT|O_TRUNC" || rows[0].Count != 2 {
		t.Errorf("top combination = %+v", rows[0])
	}
	if rows[1].Label != "O_RDONLY" || rows[1].Count != 1 {
		t.Errorf("second combination = %+v", rows[1])
	}
	if a.DistinctCombinations("open", "flags") != 2 {
		t.Errorf("distinct = %d", a.DistinctCombinations("open", "flags"))
	}
	// Mode bitmap combinations are tracked too.
	if a.DistinctCombinations("open", "mode") == 0 {
		t.Error("mode combinations not tracked")
	}
}

func TestCombinationTrackingOffByDefault(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(0, 0, 3, sys.OK))
	if a.Combinations("open", "flags") != nil {
		t.Error("combinations tracked without option")
	}
}

func TestCombinationCap(t *testing.T) {
	a := NewAnalyzer(Options{MergeVariants: true, TrackCombinations: true, CombinationCap: 2})
	for _, flags := range []int64{0, int64(sys.O_WRONLY), int64(sys.O_RDWR), int64(sys.O_WRONLY | sys.O_CREAT)} {
		a.Add(openEvent(flags, 0, 3, sys.OK))
	}
	if got := a.DistinctCombinations("open", "flags"); got != 2 {
		t.Errorf("capped distinct = %d, want 2", got)
	}
	// Counting existing combinations still works at the cap.
	a.Add(openEvent(0, 0, 3, sys.OK))
	rows := a.Combinations("open", "flags")
	if rows[0].Count != 2 {
		t.Errorf("recount at cap = %+v", rows[0])
	}
}

func TestExtendedSyscalls(t *testing.T) {
	a := NewAnalyzer(Options{MergeVariants: true, ExtendedSyscalls: true})
	a.Add(withArgs(trace.Event{Name: "unlink", Path: "/f",
		Ret: 0}, strArgs{{"pathname", "/f"}}, nil))
	a.Add(withArgs(trace.Event{Name: "rename", Path: "/a",
		Ret: -int64(sys.ENOENT), Err: sys.ENOENT}, strArgs{{"oldname", "/a"}, {"newname", "/b"}}, nil))
	a.Add(withArgs(trace.Event{Name: "fsync", Ret: 0}, nil, numArgs{{"fd", 3}}))
	a.Add(withArgs(trace.Event{Name: "renameat2", Path: "/a",
		Ret: 0}, strArgs{{"oldname", "/a"}, {"newname", "/b"}}, nil))
	if a.Skipped() != 0 {
		t.Errorf("extended analyzer skipped %d", a.Skipped())
	}
	if a.OutputReport("unlink").Count("OK") != 1 {
		t.Errorf("unlink outputs = %v", a.OutputReport("unlink").Rows)
	}
	// renameat2 merges into rename.
	if a.OutputReport("rename").Count("OK") != 1 || a.OutputReport("rename").Count("ENOENT") != 1 {
		t.Errorf("rename outputs = %v", a.OutputReport("rename").Rows)
	}
	rep := a.OutputReport("rename")
	if rep.DomainSize() < 10 {
		t.Errorf("rename domain = %d", rep.DomainSize())
	}
	// The standard analyzer skips all of these.
	std := NewAnalyzer(DefaultOptions())
	std.Add(trace.Event{Name: "unlink", Path: "/f", Ret: 0})
	if std.Skipped() != 1 {
		t.Errorf("standard analyzer skipped = %d", std.Skipped())
	}
}

func TestExtendedIdentifierTracking(t *testing.T) {
	a := NewAnalyzer(Options{MergeVariants: true, ExtendedSyscalls: true, TrackIdentifiers: true})
	a.Add(withArgs(trace.Event{Name: "rename", Path: "/a",
		Ret: 0}, strArgs{{"oldname", "/a"}, {"newname", "/b"}}, nil))
	a.Add(withArgs(trace.Event{Name: "rename", Path: "/c",
		Ret: 0}, strArgs{{"oldname", "/c"}, {"newname", "/b"}}, nil))
	if got := a.IdentifierCardinality("rename", "oldname"); got != 2 {
		t.Errorf("oldname cardinality = %d", got)
	}
	if got := a.IdentifierCardinality("rename", "newname"); got != 1 {
		t.Errorf("newname cardinality = %d", got)
	}
}
