package kernel

import (
	"testing"

	"iocov/internal/raceflag"
	"iocov/internal/sys"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

// TestSyscallCycleAllocs bounds the allocation cost of a traced
// open/write/close cycle on a file four components deep, the shape of the
// suites' paths under the mount. Event emission itself is allocation-free
// (pair slices stay on the emitting frame, inline Event storage avoids
// maps) and so is the VFS path walk; the budget below covers kernel
// bookkeeping (the descriptor table), not tracing or path resolution.
func TestSyscallCycleAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	sink := &trace.CountingSink{}
	k := New(vfs.New(vfs.DefaultConfig()), Options{Sink: sink})
	p := k.NewProc(ProcOptions{})
	for _, d := range []string{"/mnt", "/mnt/test", "/mnt/test/dir"} {
		if err := p.Mkdir(d, 0o755); err != sys.OK {
			t.Fatalf("mkdir %s: %v", d, err)
		}
	}
	buf := []byte("0123456789abcdef")

	cycle := func() {
		fd, err := p.Open("/mnt/test/dir/file", sys.O_RDWR|sys.O_CREAT, 0o644)
		if err != sys.OK {
			t.Fatalf("open: %v", err)
		}
		if _, err := p.Write(fd, buf); err != sys.OK {
			t.Fatalf("write: %v", err)
		}
		if err := p.Close(fd); err != sys.OK {
			t.Fatalf("close: %v", err)
		}
	}
	// Warm up: create the file and let the fd table and VFS extents settle.
	for i := 0; i < 4; i++ {
		cycle()
	}

	// Measured at 1 (the open path's *file box); anything above means
	// tracing or the path walk started allocating again.
	const budget = 1.0
	if n := testing.AllocsPerRun(200, cycle); n > budget {
		t.Fatalf("open/write/close cycle allocates %.1f times, budget %.0f", n, budget)
	}
	if sink.N == 0 {
		t.Fatal("no events traced")
	}
}
