package coverage

import (
	"reflect"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/trace"
)

// strArgs and numArgs are a test event's string and numeric arguments,
// in recording order.
type (
	strArgs []struct{ name, v string }
	numArgs []struct {
		name string
		v    int64
	}
)

// withArgs returns ev with s and n recorded through AddStr and AddArg.
func withArgs(ev trace.Event, s strArgs, n numArgs) trace.Event {
	for _, p := range s {
		ev.AddStr(p.name, p.v)
	}
	for _, p := range n {
		ev.AddArg(p.name, p.v)
	}
	return ev
}

func openEvent(flags, mode int64, ret int64, err sys.Errno) trace.Event {
	return withArgs(trace.Event{
		Name: "open", Path: "/f", PID: 1,
		Ret: ret, Err: err,
	}, strArgs{{"filename", "/f"}}, numArgs{{"flags", flags}, {"mode", mode}})
}

func writeEvent(count int64, ret int64, err sys.Errno) trace.Event {
	return withArgs(trace.Event{
		Name: "write", PID: 1,
		Ret: ret, Err: err,
	}, nil, numArgs{{"fd", 3}, {"count", count}})
}

func TestInputCoverageOpenFlags(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(0, 0, 3, sys.OK))                                             // O_RDONLY
	a.Add(openEvent(int64(sys.O_WRONLY|sys.O_CREAT), 0o644, 4, sys.OK))           // 2 flags
	a.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT|sys.O_TRUNC), 0o644, 5, sys.OK)) // 3 flags
	c := a.InputReport("open", "flags")
	if c == nil {
		t.Fatal("no open flags coverage")
	}
	if c.Count("O_RDONLY") != 1 || c.Count("O_CREAT") != 2 || c.Count("O_TRUNC") != 1 {
		t.Errorf("counts = %v", c.Rows)
	}
	if c.Count("O_SYNC") != 0 {
		t.Errorf("O_SYNC = %d, want 0", c.Count("O_SYNC"))
	}
	rep := a.InputReport("open", "flags")
	if rep.DomainSize() != 21 { // 20 flags + O_ACCMODE_INVALID
		t.Errorf("domain = %d", rep.DomainSize())
	}
	if rep.Covered() != 6 { // O_RDONLY, O_WRONLY, O_RDWR, O_CREAT, O_TRUNC... count: RDONLY,WRONLY,CREAT,RDWR,TRUNC = 5
		// O_RDONLY, O_WRONLY, O_RDWR, O_CREAT, O_TRUNC = 5 covered
		if rep.Covered() != 5 {
			t.Errorf("covered = %d, want 5", rep.Covered())
		}
	}
	untested := rep.Untested()
	for _, label := range untested {
		if label == "O_CREAT" {
			t.Error("O_CREAT reported untested")
		}
	}
}

func TestVariantMerging(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(withArgs(trace.Event{Name: "openat", Path: "/f", PID: 1,
		Ret: 3}, nil, numArgs{{"dfd", -100}, {"flags", 0}, {"mode", 0}}))
	a.Add(withArgs(trace.Event{Name: "creat", Path: "/f", PID: 1,
		Ret: 4}, nil, numArgs{{"mode", 0o644}}))
	a.Add(openEvent(0, 0, 5, sys.OK))
	c := a.InputReport("open", "flags")
	// creat has no flags argument, so only openat + open contribute.
	if c.Count("O_RDONLY") != 2 {
		t.Errorf("merged O_RDONLY = %d, want 2", c.Count("O_RDONLY"))
	}
	// But all three land in open's output space.
	oc := a.OutputReport("open")
	if oc.Count("OK") != 3 {
		t.Errorf("merged OK = %d, want 3", oc.Count("OK"))
	}
}

func TestMergingDisabled(t *testing.T) {
	a := NewAnalyzer(Options{MergeVariants: false})
	a.Add(withArgs(trace.Event{Name: "openat", Path: "/f", PID: 1,
		Ret: 3}, nil, numArgs{{"flags", 0}, {"mode", 0}}))
	a.Add(openEvent(0, 0, 4, sys.OK))
	if a.OutputReport("open").Count("OK") != 1 {
		t.Errorf("open OK = %d, want 1", a.OutputReport("open").Count("OK"))
	}
	if a.OutputReport("openat").Count("OK") != 1 {
		t.Errorf("openat OK = %d, want 1", a.OutputReport("openat").Count("OK"))
	}
}

func TestWriteSizePartitions(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(writeEvent(0, 0, sys.OK))
	a.Add(writeEvent(1, 1, sys.OK))
	a.Add(writeEvent(1024, 1024, sys.OK))
	a.Add(writeEvent(2000, 2000, sys.OK))
	a.Add(writeEvent(1<<28, 1<<28, sys.OK))
	c := a.InputReport("write", "count")
	if c.Count("=0") != 1 || c.Count("2^0") != 1 || c.Count("2^10") != 2 || c.Count("2^28") != 1 {
		t.Errorf("counts = %v", c.Rows)
	}
}

func TestOutputCoverage(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(0, 0, 3, sys.OK))
	a.Add(openEvent(0, 0, -2, sys.ENOENT))
	a.Add(openEvent(0, 0, -13, sys.EACCES))
	a.Add(openEvent(0, 0, -2, sys.ENOENT))
	oc := a.OutputReport("open")
	if oc.Count("OK") != 1 || oc.Count("ENOENT") != 2 || oc.Count("EACCES") != 1 {
		t.Errorf("output counts = %v", oc.Rows)
	}
	// open's one success partition is row 0; every later row is an errno.
	var errs int64
	for _, row := range oc.Rows[1:] {
		errs += row.Count
	}
	if oc.Rows[0].Count != 1 || errs != 3 {
		t.Errorf("success/error = %d/%d", oc.Rows[0].Count, errs)
	}
	rep := a.OutputReport("open")
	if rep.DomainSize() != 28 {
		t.Errorf("output domain = %d", rep.DomainSize())
	}
	if got := len(rep.Untested()); got != 25 {
		t.Errorf("untested outputs = %d, want 25", got)
	}
}

func TestWriteOutputByteBuckets(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(writeEvent(4096, 4096, sys.OK))
	a.Add(writeEvent(10, 10, sys.OK))
	a.Add(writeEvent(10, 0, sys.ENOSPC))
	oc := a.OutputReport("write")
	if oc.Count("OK:2^12") != 1 || oc.Count("OK:2^3") != 1 || oc.Count("ENOSPC") != 1 {
		t.Errorf("write output = %v", oc.Rows)
	}
}

func TestExtraErrnoOutsideManPage(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	// read's man page does not document ENOSPC; the analyzer must surface
	// it as an extra partition, not lose it.
	a.Add(withArgs(trace.Event{Name: "read", PID: 1,
		Ret: -int64(sys.ENOSPC), Err: sys.ENOSPC}, nil, numArgs{{"fd", 3}, {"count", 10}}))
	rep := a.OutputReport("read")
	if len(rep.Extra) != 1 || rep.Extra[0].Label != "ENOSPC" {
		t.Errorf("extra = %v", rep.Extra)
	}
}

func TestComboStats(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(0, 0, 3, sys.OK))                                   // 1 flag, rdonly
	a.Add(openEvent(int64(sys.O_WRONLY|sys.O_CREAT), 0o644, 4, sys.OK)) // 2 flags
	a.Add(openEvent(int64(sys.O_CREAT|sys.O_TRUNC), 0o644, 5, sys.OK))  // 3 flags w/ rdonly
	a.Add(openEvent(int64(sys.O_CREAT|sys.O_TRUNC), 0o644, 6, sys.OK))  // again
	combos := a.Combos()
	if combos.All[1] != 1 || combos.All[2] != 1 || combos.All[3] != 2 {
		t.Errorf("all combos = %v", combos.All)
	}
	if combos.Rdonly[1] != 1 || combos.Rdonly[3] != 2 || combos.Rdonly[2] != 0 {
		t.Errorf("rdonly combos = %v", combos.Rdonly)
	}
	rows := a.ComboTable(6)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Pct[0] != 25 || rows[0].Pct[2] != 50 {
		t.Errorf("all pct = %v", rows[0].Pct)
	}
	if a.MaxComboSize() != 3 {
		t.Errorf("max combo = %d", a.MaxComboSize())
	}
}

func TestSkippedOutOfScope(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(trace.Event{Name: "unlink", Path: "/f", PID: 1})
	a.Add(withArgs(trace.Event{Name: "fsync", PID: 1}, nil, numArgs{{"fd", 3}}))
	a.Add(openEvent(0, 0, 3, sys.OK))
	if a.Analyzed() != 1 || a.Skipped() != 2 {
		t.Errorf("analyzed/skipped = %d/%d", a.Analyzed(), a.Skipped())
	}
}

func TestPreadOffsetOnlyForPread(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	// A plain read event carrying a "pos" key by accident must not count,
	// because the spec restricts the pos argument to pread64.
	a.Add(withArgs(trace.Event{Name: "read", PID: 1,
		Ret: 10}, nil, numArgs{{"fd", 3}, {"count", 10}, {"pos", 5}}))
	if c := a.InputReport("read", "pos"); c != nil {
		t.Errorf("read pos counted: %v", c.Rows)
	}
	a.Add(withArgs(trace.Event{Name: "pread64", PID: 1,
		Ret: 10}, nil, numArgs{{"fd", 3}, {"count", 10}, {"pos", 5}}))
	c := a.InputReport("read", "pos")
	if c == nil || c.Count("2^2") != 1 {
		t.Errorf("pread pos missing: %+v", c)
	}
}

func TestLseekWhenceCoverage(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	for w := int64(0); w < 3; w++ {
		a.Add(withArgs(trace.Event{Name: "lseek", PID: 1,
			Ret: 0}, nil, numArgs{{"fd", 3}, {"offset", 0}, {"whence", w}}))
	}
	rep := a.InputReport("lseek", "whence")
	if rep.Covered() != 3 {
		t.Errorf("whence covered = %d, want 3", rep.Covered())
	}
	want := []string{"SEEK_DATA", "SEEK_HOLE", "invalid"}
	if !reflect.DeepEqual(rep.Untested(), want) {
		t.Errorf("untested = %v, want %v", rep.Untested(), want)
	}
}

func TestIdentifierTracking(t *testing.T) {
	a := NewAnalyzer(Options{MergeVariants: true, TrackIdentifiers: true})
	a.Add(openEvent(0, 0, 3, sys.OK))
	a.Add(openEvent(0, 0, 4, sys.OK)) // same path
	a.Add(withArgs(trace.Event{Name: "open", Path: "/g", PID: 1,
		Ret: 5}, strArgs{{"filename", "/g"}}, numArgs{{"flags", 0}, {"mode", 0}}))
	if got := a.IdentifierCardinality("open", "filename"); got != 2 {
		t.Errorf("distinct paths = %d, want 2", got)
	}
	// fd identifiers on read.
	a.Add(withArgs(trace.Event{Name: "read", PID: 1, Ret: 1}, nil, numArgs{{"fd", 3}, {"count", 1}}))
	a.Add(withArgs(trace.Event{Name: "read", PID: 1, Ret: 1}, nil, numArgs{{"fd", 4}, {"count", 1}}))
	if got := a.IdentifierCardinality("read", "fd"); got != 2 {
		t.Errorf("distinct fds = %d, want 2", got)
	}
}

func TestUntestedAll(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(0, 0, 3, sys.OK))
	sums := a.UntestedAll(34)
	if len(sums) == 0 {
		t.Fatal("no untested summaries")
	}
	var foundFlags bool
	for _, s := range sums {
		if s.Syscall == "open" && s.Arg == "flags" {
			foundFlags = true
			if len(s.Labels) != 20 { // 21-label domain - O_RDONLY
				t.Errorf("open flags untested = %d, want 20", len(s.Labels))
			}
		}
	}
	if !foundFlags {
		t.Error("open flags missing from summary")
	}
}

func TestReportHelpers(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(writeEvent(8, 8, sys.OK))
	rep := a.InputReport("write", "count")
	if rep.Fraction() <= 0 || rep.Fraction() >= 1 {
		t.Errorf("fraction = %f", rep.Fraction())
	}
	if rep.MaxCount() != 1 {
		t.Errorf("max = %d", rep.MaxCount())
	}
	trimmed := rep.TrimZeroTail(2)
	// write count domain: <0, =0, 2^0..2^63. Bucket 2^3 is index 5 → 6 rows.
	if len(trimmed.Rows) != 6 {
		t.Errorf("trimmed rows = %d, want 6", len(trimmed.Rows))
	}
	freqs := rep.Frequencies()
	labels := rep.Labels()
	if len(freqs) != len(labels) || len(freqs) != rep.DomainSize() {
		t.Error("frequencies/labels length mismatch")
	}
}

func TestAnalyzerAsSink(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	var sink trace.Sink = a
	sink.Emit(openEvent(0, 0, 3, sys.OK))
	if a.Analyzed() != 1 {
		t.Error("Emit did not analyze")
	}
}

func TestAddAll(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.AddAll([]trace.Event{openEvent(0, 0, 3, sys.OK), writeEvent(1, 1, sys.OK)})
	if a.Analyzed() != 2 {
		t.Errorf("analyzed = %d", a.Analyzed())
	}
	if got := a.Syscalls(); !reflect.DeepEqual(got, []string{"open", "write"}) {
		t.Errorf("syscalls = %v", got)
	}
}

func TestComboTableDeterministic(t *testing.T) {
	// Overflow folding sums floats; ComboTable must add them in sorted key
	// order so repeated renders of one histogram are bit-identical even
	// though Go randomizes map iteration.
	a := NewAnalyzer(DefaultOptions())
	for k, n := range map[int]int64{1: 7, 2: 3, 3: 11, 4: 5, 5: 2, 6: 9, 7: 1, 8: 13} {
		a.combos.All[k] = n
		a.combos.Rdonly[k] = n / 2
	}
	want := a.ComboTable(3)
	for i := 0; i < 100; i++ {
		if got := a.ComboTable(3); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: ComboTable diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
