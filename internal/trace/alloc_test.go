package trace

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"iocov/internal/raceflag"
	"iocov/internal/sys"
)

// TestEventSize pins the Event's size on 64-bit platforms: every Sink
// takes it by value, so each emitted event copies it at least once.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Event{}); got > 240 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want at most 240", got)
	}
}

// TestKeepSteadyStateAllocs pins the filter hot path: classifying events —
// tracked and untracked descriptors, matching and non-matching paths, pids
// the filter has never seen — must not allocate, by value, by pointer or
// through a FilteringSink. The fd set may only grow when an open actually
// installs a descriptor.
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

	sink := &FilteringSink{F: f, Next: &CountingSink{}}
	n := testing.AllocsPerRun(200, func() {
		f.Keep(write)
		f.Keep(foreign)
		f.KeepRef(&mkdir)
		f.Keep(miss)
		f.Keep(failedOpen)
		sink.Emit(write)
		sink.Emit(miss)
	})
	if n != 0 {
		t.Fatalf("steady-state Keep allocates %.1f times per 7 events, want 0", n)
	}
}

// TestFilterResetReplayAllocs pins pooled ingest sessions: a filter
// recycled with Reset keeps its emptied fd set, so replaying a session of
// the same shape — several pids, small and large descriptors, dup and
// close — allocates nothing once the first session has sized the set.
func TestFilterResetReplayAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	f, err := NewFilter(`^/mnt/test(/|$)`)
	if err != nil {
		t.Fatal(err)
	}
	var session []Event
	for pid := 1; pid <= 3; pid++ {
		for _, fd := range []int64{3, 64, 4101} {
			open := Event{PID: pid, Name: "openat", Path: "/mnt/test/f", Ret: fd}
			open.AddStr("filename", "/mnt/test/f")
			dup := Event{PID: pid, Name: "dup", Ret: fd + 1}
			dup.AddArg("fildes", fd)
			write := Event{PID: pid, Name: "write", Ret: 10}
			write.AddArg("fd", fd+1)
			closeEv := Event{PID: pid, Name: "close"}
			closeEv.AddArg("fd", fd)
			session = append(session, open, dup, write, closeEv)
		}
	}
	replay := func() {
		f.Reset()
		for i := range session {
			f.KeepRef(&session[i])
		}
	}
	replay()
	if kept, _ := f.Stats(); kept != int64(len(session)) {
		t.Fatalf("session kept %d of %d events", kept, len(session))
	}
	if n := testing.AllocsPerRun(100, replay); n != 0 {
		t.Fatalf("Reset plus session replay allocates %.1f times, want 0", n)
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

// TestBinaryParserSteadyStateAllocs pins the Event-returning adapter: with
// the inline-storage decode the steady state (all strings already
// interned) must not allocate at all.
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

// TestFilterBytesPerPid bounds the memory an untrusted stream can make the
// filter hold per event: each in-mount open from a new pid returning a
// high or huge descriptor costs one fd-set entry (about 107 B), not a
// per-pid table sized by the descriptor or a per-pid map (328 B).
func TestFilterBytesPerPid(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	const pids = 1 << 14
	f, err := NewFilter(`^/mnt/test(/|$)`)
	if err != nil {
		t.Fatal(err)
	}
	opens := make([]Event, pids)
	for pid := range opens {
		opens[pid] = Event{PID: pid, Name: "openat", Path: "/mnt/test/f", Ret: 4095 + int64(pid%2)*(1<<40)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range opens {
		if !f.KeepRef(&opens[i]) {
			t.Fatalf("in-mount open %d dropped", i)
		}
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / pids
	t.Logf("%.1f B allocated per open", perEvent)
	if perEvent > 192 {
		t.Fatalf("filter allocates %.1f B per in-mount open from a new pid, want <= 192", perEvent)
	}
}
