package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strconv"
	"testing"

	"iocov/internal/sys"
)

// batchTestEvents builds a decode-hostile event mix: inline-capacity events,
// spill events (more args/strs than the inline slots hold), dictionary-heavy
// repetition, fresh literals on every event, empty names, and the full
// scalar ranges.
func batchTestEvents(n int) []Event {
	rng := rand.New(rand.NewSource(7))
	names := []string{"open", "read", "write", "close", "fsync", "setxattr"}
	var evs []Event
	for i := 0; i < n; i++ {
		ev := Event{
			Seq:  uint64(i * 3),
			PID:  rng.Intn(1 << 16),
			Name: names[rng.Intn(len(names))],
			Ret:  rng.Int63() - rng.Int63(),
		}
		switch i % 5 {
		case 0: // inline-only, path-carrying
			ev.AddStr("filename", "/mnt/test/a")
			ev.AddArg("flags", int64(rng.Intn(1<<20)))
			ev.AddArg("mode", 0o644)
		case 1: // spills both inline stores
			ev.Strs = map[string]string{
				"filename": "/mnt/test/b", "name": "user.k", "path": "/mnt/test/c",
			}
			ev.Args = map[string]int64{
				"fd": 3, "count": 4096, "offset": 1 << 30, "whence": 1, "size": 9,
			}
		case 2: // a fresh literal per event: dictionary keeps growing
			ev.AddStr("pathname", "/mnt/test/"+names[i%len(names)]+string(rune('a'+i%26)))
		case 3: // bare numeric event
			ev.AddArg("fd", int64(rng.Intn(64)))
			ev.Err = sys.ENOENT
			ev.Ret = -int64(sys.ENOENT)
		case 4: // empty name, no args at all
			ev.Name = ""
		}
		evs = append(evs, ev)
	}
	return evs
}

func encodeEvents(t *testing.T, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, ev := range evs {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBatch drains a BatchDecoder, returning the events and the name
// ordinal reported with each one.
func decodeBatch(t *testing.T, d *BatchDecoder) ([]Event, []int) {
	t.Helper()
	var evs []Event
	var ids []int
	var ev Event
	for {
		id, err := d.Next(&ev)
		if err == io.EOF {
			return evs, ids
		}
		if err != nil {
			t.Fatalf("batch decode event %d: %v", len(evs), err)
		}
		evs = append(evs, ev)
		ids = append(ids, id)
	}
}

// TestBatchDecoderDifferential is the codec acceptance test: the batch
// decoder must reconstruct exactly the events the reference decoder does —
// including spill events and literal strings — and must report a stable
// dictionary ordinal per distinct name.
func TestBatchDecoderDifferential(t *testing.T) {
	data := encodeEvents(t, batchTestEvents(500))
	want, err := parseAllRef(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reference parse: %v", err)
	}
	d := NewBatchDecoder(bytes.NewReader(data))
	got, ids := decodeBatch(t, d)
	if len(got) != len(want) {
		t.Fatalf("batch decoded %d events, reference %d", len(got), len(want))
	}
	idByName := make(map[string]int)
	for i := range want {
		if !eventsEquivalent(&got[i], &want[i]) {
			t.Fatalf("event %d:\n batch %+v\n  ref  %+v", i, got[i], want[i])
		}
		if prev, seen := idByName[got[i].Name]; seen {
			if ids[i] != prev {
				t.Fatalf("event %d: name %q ordinal %d, previously %d", i, got[i].Name, ids[i], prev)
			}
		} else {
			if ids[i] < 0 {
				t.Fatalf("event %d: interned name %q reported ordinal %d", i, got[i].Name, ids[i])
			}
			idByName[got[i].Name] = ids[i]
		}
	}
}

// TestBatchDecoderSmallBuffer forces values to straddle every possible
// buffer boundary by shrinking the block to a few bytes, proving the
// refill/compaction path preserves the decode exactly.
func TestBatchDecoderSmallBuffer(t *testing.T) {
	data := encodeEvents(t, batchTestEvents(64))
	want, err := parseAllRef(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{16, 31, 64} {
		d := &BatchDecoder{r: iotest(data), buf: make([]byte, size)}
		got, _ := decodeBatch(t, d)
		if len(got) != len(want) {
			t.Fatalf("buf=%d: %d events, want %d", size, len(got), len(want))
		}
		for i := range want {
			if !eventsEquivalent(&got[i], &want[i]) {
				t.Fatalf("buf=%d event %d mismatch", size, i)
			}
		}
	}
}

// iotest wraps a byte slice in a reader that returns at most 7 bytes per
// call, stressing partial reads on top of the small buffer.
func iotest(data []byte) io.Reader { return &dribbleReader{data: data} }

type dribbleReader struct{ data []byte }

func (r *dribbleReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if n > 7 {
		n = 7
	}
	if n > len(r.data) {
		n = len(r.data)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestBatchDecoderEmptyAndHeader pins the header rules: zero bytes is
// malformed, a short header is a truncation, a header-only stream is a
// valid empty trace, and ReadHeader is idempotent.
func TestBatchDecoderEmptyAndHeader(t *testing.T) {
	d := NewBatchDecoder(bytes.NewReader(nil))
	if err := d.ReadHeader(); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty stream ReadHeader: %v, want ErrMalformed", err)
	}

	d = NewBatchDecoder(bytes.NewReader([]byte(binaryMagic[:2])))
	var ev Event
	if _, err := d.Next(&ev); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short header: %v, want ErrUnexpectedEOF", err)
	}

	d = NewBatchDecoder(bytes.NewReader([]byte(binaryMagic)))
	if err := d.ReadHeader(); err != nil {
		t.Fatalf("header-only ReadHeader: %v", err)
	}
	if err := d.ReadHeader(); err != nil {
		t.Fatalf("second ReadHeader: %v", err)
	}
	if d.Version() != 2 {
		t.Errorf("Version() = %d, want 2", d.Version())
	}
	if _, err := d.Next(&ev); err != io.EOF {
		t.Errorf("header-only Next: %v, want EOF", err)
	}

	d = NewBatchDecoder(bytes.NewReader([]byte(binaryMagicPrefix + "\x09")))
	if err := d.ReadHeader(); !errors.Is(err, ErrMalformed) {
		t.Errorf("unknown version: %v, want ErrMalformed", err)
	}
}

// TestBatchDecoderTruncation: every proper prefix of a valid stream must
// end in an error, never a silent success.
func TestBatchDecoderTruncation(t *testing.T) {
	full := encodeEvents(t, batchTestEvents(5))
	for cut := len(binaryMagic) + 1; cut < len(full)-1; cut++ {
		d := NewBatchDecoder(bytes.NewReader(full[:cut]))
		var ev Event
		var err error
		for err == nil {
			_, err = d.Next(&ev)
		}
		if err == io.EOF {
			// A clean EOF is only legitimate exactly at an event boundary;
			// cross-check against the reference decoder.
			if _, refErr := parseAllRef(bytes.NewReader(full[:cut])); refErr != nil {
				t.Errorf("cut %d: batch decoder clean EOF, reference errors with %v", cut, refErr)
			}
			continue
		}
		if !errors.Is(err, ErrMalformed) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut %d: untyped error %v", cut, err)
		}
	}
}

// TestBatchDecoderTransportError: an underlying transport failure surfaces
// verbatim, never reclassified as a decode error.
func TestBatchDecoderTransportError(t *testing.T) {
	full := encodeEvents(t, batchTestEvents(50))
	boom := errors.New("connection reset")
	d := NewBatchDecoder(io.MultiReader(
		bytes.NewReader(full[:len(full)/2]),
		&failAfter{err: boom},
	))
	var ev Event
	var err error
	for err == nil {
		_, err = d.Next(&ev)
	}
	if !errors.Is(err, boom) {
		t.Errorf("transport error surfaced as %v, want %v", err, boom)
	}
}

type failAfter struct{ err error }

func (f *failAfter) Read([]byte) (int, error) { return 0, f.err }

// TestBatchDecoderDictionaryCap streams more than maxDictEntries distinct
// literals. The writer stops interning at the cap and re-emits later
// strings literally; the decoder must stop retaining at the same point,
// so its memory is bounded by the cap and the ids on both sides stay
// aligned: references to interned strings still decode after the cap.
func TestBatchDecoderDictionaryCap(t *testing.T) {
	const total = maxDictEntries + 3
	name := func(i int) string { return "n" + strconv.Itoa(i) }
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for i := 0; i < total; i++ {
		w.Emit(Event{Seq: uint64(i), Name: name(i)})
	}
	// After the cap: a reference to the first interned name, a reference
	// to the last one, and a repeat of a name the writer never interned.
	tail := []int{0, maxDictEntries - 1, total - 1}
	for _, i := range tail {
		w.Emit(Event{Name: name(i)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	d := NewBatchDecoder(bytes.NewReader(buf.Bytes()))
	var ev Event
	for i := 0; i < total; i++ {
		id, err := d.Next(&ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		want := i
		if i >= maxDictEntries {
			want = -1 // a literal past the cap has no ordinal
		}
		if ev.Name != name(i) || id != want {
			t.Fatalf("event %d: name %q ordinal %d, want %q ordinal %d", i, ev.Name, id, name(i), want)
		}
	}
	if len(d.dict) != maxDictEntries {
		t.Fatalf("decoder retained %d dictionary entries, cap is %d", len(d.dict), maxDictEntries)
	}
	for _, i := range tail {
		id, err := d.Next(&ev)
		if err != nil {
			t.Fatalf("tail reference to %d: %v", i, err)
		}
		want := i
		if i >= maxDictEntries {
			want = -1
		}
		if ev.Name != name(i) || id != want {
			t.Fatalf("tail reference: name %q ordinal %d, want %q ordinal %d", ev.Name, id, name(i), want)
		}
	}
	if _, err := d.Next(&ev); err != io.EOF {
		t.Fatalf("after tail: err = %v, want EOF", err)
	}
}
