package trace

import (
	"bytes"
	"reflect"
	"testing"

	"iocov/internal/sys"
)

// TestBatchDecoderReset: a decoder recycled across streams — including
// after a mid-stream failure — must decode the next stream exactly like a
// fresh decoder: same events, same ordinals, no dictionary or sequence
// state bleeding through.
func TestBatchDecoderReset(t *testing.T) {
	first := encodeEvents(t, batchTestEvents(64))
	second := encodeEvents(t, batchTestEvents(32)[8:]) // different seq base, different dict order

	d := NewBatchDecoder(bytes.NewReader(first))
	_, _ = decodeBatch(t, d)

	// Poison: replay the first stream truncated mid-event, then Reset again.
	d.Reset(bytes.NewReader(first[:len(first)/2]))
	var ev Event
	for {
		if _, err := d.Next(&ev); err != nil {
			break
		}
	}

	d.Reset(bytes.NewReader(second))
	gotEvs, gotIDs := decodeBatch(t, d)

	ref := NewBatchDecoder(bytes.NewReader(second))
	wantEvs, wantIDs := decodeBatch(t, ref)
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Errorf("ordinals after reset differ: got %v want %v", gotIDs, wantIDs)
	}
	if !reflect.DeepEqual(gotEvs, wantEvs) {
		t.Errorf("events after reset differ from fresh decode")
	}
}

// TestFilterReset: recycled filters must not leak descriptor tracking from
// an earlier session, for small descriptors and huge ones alike (a
// negative return is an error and never installs a descriptor).
func TestFilterReset(t *testing.T) {
	f, err := NewFilter(`^/mnt/test(/|$)`)
	if err != nil {
		t.Fatal(err)
	}
	fds := []int64{0, 7, 4095, 4096, 1 << 40}
	for _, fd := range fds {
		if !f.Keep(resetOpen(9, fd)) {
			t.Fatalf("in-mount open of fd %d not kept", fd)
		}
		if !f.Keep(resetWrite(9, fd)) {
			t.Fatalf("write to tracked fd %d dropped", fd)
		}
	}
	f.Reset()
	if kept, dropped := f.Stats(); kept != 0 || dropped != 0 {
		t.Errorf("stats after reset = %d/%d", kept, dropped)
	}
	// Every fd of pid 9 was tracked before Reset; a fresh filter drops
	// them all, including once the emptied set is in use again.
	for _, fd := range fds {
		if f.Keep(resetWrite(9, fd)) {
			t.Errorf("stale fd %d survived Reset", fd)
		}
	}
	if !f.Keep(resetOpen(4, 5)) {
		t.Fatal("in-mount open after Reset not kept")
	}
	for _, fd := range fds {
		if f.Keep(resetWrite(4, fd)) != (fd == 5) {
			t.Errorf("pid 4 fd %d: reused set reports stale tracking", fd)
		}
	}
}

// TestFilterResetDropsLargeSet: a session that grew the fd map past
// retainFDs leaves a recycled filter with no map at all, so a pooled
// filter does not keep a hostile stream's capacity; a smaller session's
// map is kept for reuse. Pids from boxSize up miss the box, so each of
// their opens is one map entry. The box is empty after every Reset.
func TestFilterResetDropsLargeSet(t *testing.T) {
	f, err := NewFilter(`^/mnt/test(/|$)`)
	if err != nil {
		t.Fatal(err)
	}
	for pid := boxSize; pid <= boxSize+retainFDs; pid++ {
		f.Keep(resetOpen(pid, 3))
	}
	// Closing everything empties the map but not its capacity.
	for pid := boxSize; pid <= boxSize+retainFDs; pid++ {
		f.Keep(resetClose(pid, 3))
	}
	f.Keep(resetOpen(1, 3))
	f.Reset()
	if f.fds != nil {
		t.Fatalf("Reset kept a map that held %d descriptors", retainFDs+1)
	}
	if f.box != ([boxSize]uint64{}) {
		t.Fatal("Reset left descriptors in the box")
	}
	for pid := boxSize; pid < boxSize+retainFDs; pid++ {
		f.Keep(resetOpen(pid, 3))
	}
	f.Keep(resetOpen(1, 3))
	f.Reset()
	if f.fds == nil || len(f.fds) != 0 {
		t.Fatalf("Reset after %d descriptors: map %v, want kept and empty", retainFDs, f.fds)
	}
	if f.box != ([boxSize]uint64{}) {
		t.Fatal("Reset left descriptors in the box")
	}
	if f.Keep(resetWrite(boxSize+1, 3)) || f.Keep(resetWrite(1, 3)) {
		t.Error("stale fd survived Reset")
	}
}

// resetOpen is a successful in-mount open returning fd.
func resetOpen(pid int, fd int64) Event {
	ev := Event{Name: "open", PID: pid, Path: "/mnt/test/x", Ret: fd}
	ev.AddStr("filename", "/mnt/test/x")
	ev.AddArg("flags", 0)
	return ev
}

// resetClose is a successful close of fd.
func resetClose(pid int, fd int64) Event {
	ev := Event{Name: "close", PID: pid}
	ev.AddArg("fd", fd)
	return ev
}

// resetWrite is a successful write to fd.
func resetWrite(pid int, fd int64) Event {
	ev := Event{Name: "write", PID: pid, Ret: 4, Err: sys.OK}
	ev.AddArg("fd", fd)
	ev.AddArg("count", 4)
	return ev
}
