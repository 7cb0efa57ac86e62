package coverage

import (
	"bytes"
	"testing"

	"iocov/internal/raceflag"
	"iocov/internal/sys"
	"iocov/internal/trace"
)

// batchStreamEvents builds a mixed stream: analyzed syscalls, out-of-spec
// names the analyzer must skip, success and failure outcomes. Its first six
// events reach every partition scheme.
func batchStreamEvents(n int) []trace.Event {
	var evs []trace.Event
	for i := 0; i < n; i++ {
		var ev trace.Event
		switch i % 6 {
		case 0:
			ev = trace.Event{Seq: uint64(i), PID: 1, Name: "openat", Path: "/mnt/test/f", Ret: 3}
			ev.AddStr("filename", "/mnt/test/f")
			ev.AddArg("flags", int64(sys.O_RDWR|sys.O_CREAT))
			ev.AddArg("mode", 0o644)
		case 1:
			ev = trace.Event{Seq: uint64(i), PID: 1, Name: "write", Ret: int64(1 << (i % 14))}
			ev.AddArg("fd", 3)
			ev.AddArg("count", int64(1<<(i%14)))
		case 2:
			ev = trace.Event{Seq: uint64(i), PID: 2, Name: "read",
				Ret: -int64(sys.EBADF), Err: sys.EBADF}
			ev.AddArg("fd", 99)
			ev.AddArg("count", 16)
		case 3:
			ev = trace.Event{Seq: uint64(i), PID: 2, Name: "bogus_syscall"}
		case 4:
			ev = trace.Event{Seq: uint64(i), PID: 1, Name: "lseek", Ret: int64(i) << 10}
			ev.AddArg("fd", 3)
			ev.AddArg("offset", int64(i)<<10)
			ev.AddArg("whence", int64(i%3))
		case 5:
			ev = trace.Event{Seq: uint64(i), PID: 1, Name: "setxattr", Path: "/mnt/test/f"}
			ev.AddStr("filename", "/mnt/test/f")
			ev.AddArg("size", int64(i))
			ev.AddArg("flags", int64(i%4))
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestBatchMatchesAdd is the Batch entry point's core contract: feeding the
// same events through Batch.Add (with dictionary ordinals, as the batch
// decoder supplies them) must leave the analyzer byte-identical to the
// by-name Add path — including skip accounting for out-of-spec names.
func TestBatchMatchesAdd(t *testing.T) {
	evs := batchStreamEvents(400)

	ref := NewAnalyzer(DefaultOptions())
	for _, ev := range evs {
		ref.Add(ev)
	}

	an := NewAnalyzer(DefaultOptions())
	b := an.NewBatch()
	ids := make(map[string]int)
	for i := range evs {
		id, seen := ids[evs[i].Name]
		if !seen {
			id = len(ids)
			ids[evs[i].Name] = id
		}
		b.Add(&evs[i], id)
	}

	if got, want := snapshotBytes(t, an.Snapshot(0)), snapshotBytes(t, ref.Snapshot(0)); !bytes.Equal(got, want) {
		t.Errorf("Batch snapshot differs from Add snapshot\n got: %.400s\nwant: %.400s", got, want)
	}
	if an.Analyzed() != ref.Analyzed() || an.Skipped() != ref.Skipped() {
		t.Errorf("accounting: batch analyzed=%d skipped=%d, ref analyzed=%d skipped=%d",
			an.Analyzed(), an.Skipped(), ref.Analyzed(), ref.Skipped())
	}
}

// TestBatchUninternedNames: nameID -1 (a literal past the dictionary cap)
// must fall back to by-name dispatch on every event and still analyze
// correctly.
func TestBatchUninternedNames(t *testing.T) {
	evs := batchStreamEvents(40)

	ref := NewAnalyzer(DefaultOptions())
	for _, ev := range evs {
		ref.Add(ev)
	}

	an := NewAnalyzer(DefaultOptions())
	b := an.NewBatch()
	for i := range evs {
		b.Add(&evs[i], -1)
	}

	if got, want := snapshotBytes(t, an.Snapshot(0)), snapshotBytes(t, ref.Snapshot(0)); !bytes.Equal(got, want) {
		t.Errorf("unindexed Batch snapshot differs\n got: %.400s\nwant: %.400s", got, want)
	}
}

// TestBatchSparseOrdinals: ordinals far beyond the number of distinct names
// (a stream whose dictionary is dominated by paths and keys) grow the
// dispatch table without corrupting dispatch.
func TestBatchSparseOrdinals(t *testing.T) {
	an := NewAnalyzer(DefaultOptions())
	b := an.NewBatch()
	ev := trace.Event{Seq: 1, PID: 1, Name: "write", Ret: 8}
	ev.AddArg("fd", 3)
	ev.AddArg("count", 8)
	b.Add(&ev, 900)
	b.Add(&ev, 900)
	b.Add(&ev, 3)
	if an.Analyzed() != 3 {
		t.Errorf("analyzed = %d, want 3", an.Analyzed())
	}
}

// TestBatchAddSteadyStateAllocs pins the fast path end to end: with the
// ordinal table warm, Batch.Add must not allocate for analyzed or skipped
// events.
func TestBatchAddSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	an := NewAnalyzer(DefaultOptions())
	b := an.NewBatch()
	evs := batchStreamEvents(6)
	for i := 0; i < 4; i++ {
		for j := range evs {
			b.Add(&evs[j], j)
		}
	}
	n := testing.AllocsPerRun(200, func() {
		for j := range evs {
			b.Add(&evs[j], j)
		}
	})
	if n != 0 {
		t.Fatalf("steady-state Batch.Add allocates %.1f times per %d events, want 0", n, len(evs))
	}
}
