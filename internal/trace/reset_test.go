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
// an earlier session.
func TestFilterReset(t *testing.T) {
	f, err := NewFilter(`^/mnt/test(/|$)`)
	if err != nil {
		t.Fatal(err)
	}
	open := Event{Name: "open", PID: 9, Path: "/mnt/test/x", Ret: 7}
	open.AddStr("filename", "/mnt/test/x")
	open.AddArg("flags", 0)
	if !f.Keep(open) {
		t.Fatal("in-mount open not kept")
	}
	f.Reset()
	if kept, dropped := f.Stats(); kept != 0 || dropped != 0 {
		t.Errorf("stats after reset = %d/%d", kept, dropped)
	}
	// fd 7 of pid 9 was tracked before Reset; a fresh filter drops it.
	wr := Event{Name: "write", PID: 9, Ret: 4, Err: sys.OK}
	wr.AddArg("fd", 7)
	wr.AddArg("count", 4)
	if f.Keep(wr) {
		t.Error("stale fd table survived Reset")
	}
}
