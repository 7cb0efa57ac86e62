package coverage

import (
	"testing"

	"iocov/internal/raceflag"
	"iocov/internal/sys"
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
