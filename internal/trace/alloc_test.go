package trace

import (
	"bytes"
	"testing"

	"iocov/internal/raceflag"
	"iocov/internal/sys"
)

// TestKeepSteadyStateAllocs pins the filter hot path: classifying events —
// tracked and untracked descriptors, matching and non-matching paths, pids
// the filter has never seen — must not allocate. The per-pid fd maps may
// only be created when an open actually installs a descriptor.
func TestKeepSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	f, err := NewFilter(`^/mnt/test(/|$)`)
	if err != nil {
		t.Fatal(err)
	}

	// One successful in-mount open installs pid 1's descriptor table.
	open := Event{Seq: 1, PID: 1, Name: "open", Path: "/mnt/test/a", Ret: 3}
	open.AddStr("filename", "/mnt/test/a")
	if !f.Keep(open) {
		t.Fatal("in-mount open not kept")
	}

	write := Event{Seq: 2, PID: 1, Name: "write", Ret: 100}
	write.AddArg("fd", 3)
	write.AddArg("count", 100)

	foreign := Event{Seq: 3, PID: 7, Name: "write", Ret: 1}
	foreign.AddArg("fd", 9)

	mkdir := Event{Seq: 4, PID: 2, Name: "mkdir", Path: "/mnt/test/d"}
	mkdir.AddStr("pathname", "/mnt/test/d")

	miss := Event{Seq: 5, PID: 3, Name: "stat", Path: "/var/log/x"}
	miss.AddStr("filename", "/var/log/x")

	failedOpen := Event{Seq: 6, PID: 8, Name: "open", Path: "/mnt/test/gone",
		Ret: -int64(sys.ENOENT), Err: sys.ENOENT}
	failedOpen.AddStr("filename", "/mnt/test/gone")

	n := testing.AllocsPerRun(200, func() {
		f.Keep(write)
		f.Keep(foreign)
		f.Keep(mkdir)
		f.Keep(miss)
		f.Keep(failedOpen)
	})
	if n != 0 {
		t.Fatalf("steady-state Keep allocates %.1f times per 5 events, want 0", n)
	}
}

// allocTestStream encodes n copies of a typical syscall event cycle whose
// strings all repeat, so everything past the first few events is a pure
// dictionary-hit decode.
func allocTestStream(t *testing.T, n int) []byte {
	t.Helper()
	var events []Event
	for i := 0; i < n; i++ {
		ev := Event{Seq: uint64(i + 1), PID: 1 + i%3, Name: "write", Ret: 4096}
		ev.AddStr("filename", "/mnt/test/a")
		ev.AddArg("fd", 3)
		ev.AddArg("count", 4096)
		events = append(events, ev)
	}
	return encodeEvents(t, events)
}

// TestBinaryParserSteadyStateAllocs pins the Event-returning adapter's
// allocation regression fix: Next used to build a fresh Args and Strs map
// per event; with the inline-storage decode the steady state (all strings
// already interned) must not allocate at all.
func TestBinaryParserSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	p := NewBinaryParser(bytes.NewReader(allocTestStream(t, 1000)))
	// Warm up: first sight interns the dictionary strings.
	for i := 0; i < 8; i++ {
		if _, err := p.Next(); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, func() {
		if _, err := p.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("steady-state BinaryParser.Next allocates %.1f per event, want 0", n)
	}
}

// TestBatchDecodeSteadyStateAllocs pins the ingest fast path: decoding into
// a reused Event through the batch decoder must be allocation-free once the
// per-stream dictionary is warm.
func TestBatchDecodeSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	d := NewBatchDecoder(bytes.NewReader(allocTestStream(t, 1000)))
	var ev Event
	for i := 0; i < 8; i++ {
		if _, err := d.Next(&ev); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, func() {
		if _, err := d.Next(&ev); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("steady-state BatchDecoder.Next allocates %.1f per event, want 0", n)
	}
}
