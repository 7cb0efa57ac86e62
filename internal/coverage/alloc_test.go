package coverage

import (
	"testing"

	"iocov/internal/raceflag"
	"iocov/internal/sys"
	"iocov/internal/sysspec"
	"iocov/internal/trace"
)

// TestAddSteadyStateAllocs pins the compiled hot path: once a syscall name
// has been seen and its counters exist, Add and Emit must not allocate.
// This is the zero-allocation property the dense partition indices buy.
// The events reach every partition scheme: numeric (count, offset, size),
// open flags, mode bits, lseek's whence and setxattr's flags.
func TestAddSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	an := NewAnalyzer(DefaultOptions())

	open := trace.Event{Seq: 1, PID: 1, Name: "openat", Path: "/mnt/test/f", Ret: 3}
	open.AddStr("filename", "/mnt/test/f")
	open.AddArg("flags", int64(sys.O_RDWR|sys.O_CREAT|sys.O_TRUNC))
	open.AddArg("mode", 0o644)

	write := trace.Event{Seq: 2, PID: 1, Name: "write", Ret: 4096}
	write.AddArg("fd", 3)
	write.AddArg("count", 4096)

	fail := trace.Event{Seq: 3, PID: 1, Name: "read", Ret: -int64(sys.EBADF), Err: sys.EBADF}
	fail.AddArg("fd", 99)
	fail.AddArg("count", 16)

	skip := trace.Event{Seq: 4, PID: 1, Name: "getpid"}

	seek := trace.Event{Seq: 5, PID: 1, Name: "lseek", Ret: 8192}
	seek.AddArg("fd", 3)
	seek.AddArg("offset", 8192)
	seek.AddArg("whence", int64(sys.SEEK_SET))

	// An out-of-range whence takes the scheme's "invalid" branch.
	badSeek := trace.Event{Seq: 6, PID: 1, Name: "lseek", Ret: -int64(sys.EINVAL), Err: sys.EINVAL}
	badSeek.AddArg("fd", 3)
	badSeek.AddArg("offset", 0)
	badSeek.AddArg("whence", 99)

	xattr := trace.Event{Seq: 7, PID: 1, Name: "setxattr", Path: "/mnt/test/f"}
	xattr.AddStr("filename", "/mnt/test/f")
	xattr.AddArg("size", 512)
	xattr.AddArg("flags", int64(sys.XATTR_CREATE))

	events := func() {
		an.Add(open)
		an.Add(write)
		an.Add(fail)
		an.Add(skip)
		an.Add(seek)
		an.Add(badSeek)
		an.Emit(xattr)
	}
	// Warm the compiled entries, counters, and scratch buffer.
	for i := 0; i < 4; i++ {
		events()
	}

	n := testing.AllocsPerRun(200, events)
	if n != 0 {
		t.Fatalf("steady-state Add allocates %.1f times per 7 events, want 0", n)
	}
}

// TestSnapshotAllocs pins the render's allocations to a fixed number,
// whatever the number of spaces: the snapshot, its scratch of space
// sources, its two pools, one backing array of counts, one of untested
// labels, and the open-combination maps. seedAnalyzer has a few spaces;
// the wide analyzer has every space of the standard table.
func TestSnapshotAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	wide := seedAnalyzer()
	for _, base := range wide.table.Bases() {
		ev := trace.Event{Name: base, PID: 1}
		for _, arg := range wide.table.Spec(base).Args {
			if arg.Class != sysspec.Identifier {
				ev.AddArg(arg.Key, 1)
			}
		}
		wide.Add(ev)
	}
	small := seedAnalyzer()
	counts := make([]float64, 2)
	for i, an := range []*Analyzer{small, wide} {
		counts[i] = testing.AllocsPerRun(100, func() { an.Snapshot(0) })
	}
	if n := len(wide.Snapshot(0).Outputs); n != len(wide.table.Bases()) {
		t.Fatalf("wide analyzer has %d output spaces, want one per syscall", n)
	}
	if counts[0] != counts[1] || counts[1] > 11 {
		t.Fatalf("Snapshot allocates %.1f times for %d spaces and %.1f times for %d, want one fixed count of at most 11",
			counts[0], len(small.Snapshot(0).Inputs)+len(small.Snapshot(0).Outputs),
			counts[1], len(wide.Snapshot(0).Inputs)+len(wide.Snapshot(0).Outputs))
	}
}
