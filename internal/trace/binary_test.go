package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"iocov/internal/sys"
)

// eventsEquivalent compares two events semantically: scalar fields plus the
// full argument sets through the accessor API, so map-built and
// inline-built events compare equal when they carry the same data. (The
// decoders use inline storage, so reflect.DeepEqual against a map-built
// original would spuriously fail on representation.)
func eventsEquivalent(a, b *Event) bool {
	if a.Seq != b.Seq || a.PID != b.PID || a.Name != b.Name ||
		a.Path != b.Path || a.Ret != b.Ret || a.Err != b.Err {
		return false
	}
	if a.numArgs() != b.numArgs() || a.numStrs() != b.numStrs() {
		return false
	}
	ok := true
	a.EachArg(func(name string, v int64) {
		if got, found := b.Arg(name); !found || got != v {
			ok = false
		}
	})
	a.EachStr(func(name, v string) {
		if got, found := b.Str(name); !found || got != v {
			ok = false
		}
	})
	return ok
}

func TestBinaryRoundTrip(t *testing.T) {
	events := []Event{
		sampleEvent(),
		{Seq: 43, PID: 7, Name: "write",
			Args: map[string]int64{"fd": 3, "count": 4096},
			Ret:  -int64(sys.ENOSPC), Err: sys.ENOSPC},
		{Seq: 44, PID: 8, Name: "sync"},
		{Seq: 45, PID: 7, Name: "setxattr", Path: "/mnt/test/x",
			Strs: map[string]string{"pathname": "/mnt/test/x", "name": "user.k"},
			Args: map[string]int64{"size": 0, "flags": 2}},
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, ev := range events {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseAllBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d, want %d", len(got), len(events))
	}
	for i := range events {
		if !eventsEquivalent(&got[i], &events[i]) {
			t.Errorf("event %d:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

func TestBinaryDictionaryCompression(t *testing.T) {
	// Many events with repeating names/keys/paths: the binary stream must
	// be much smaller than the text stream.
	rng := rand.New(rand.NewSource(1))
	var events []Event
	for i := 0; i < 2000; i++ {
		events = append(events, Event{
			Seq: uint64(i + 1), PID: 1, Name: "write",
			Args: map[string]int64{"fd": 3, "count": int64(rng.Intn(1 << 20))},
			Ret:  1,
		})
	}
	var bin, txt bytes.Buffer
	bw := NewBinaryWriter(&bin)
	tw := NewWriter(&txt)
	for _, ev := range events {
		bw.Emit(ev)
		tw.Emit(ev)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*3 > txt.Len() {
		t.Errorf("binary %d bytes vs text %d: expected at least 3x compression", bin.Len(), txt.Len())
	}
	got, err := ParseAllBinary(&bin)
	if err != nil || len(got) != len(events) {
		t.Fatalf("reparse: %d events, err %v", len(got), err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ParseAllBinary(bytes.NewReader([]byte("NOPE\x01xxxx"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseAllBinary(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("empty stream: %d events, %v", len(got), err)
	}
	// Completely empty input is NOT a valid empty trace: the header is
	// mandatory, so a zero-byte stream is malformed, not EOF.
	p := NewBinaryParser(bytes.NewReader(nil))
	if _, err := p.Next(); !errors.Is(err, ErrMalformed) {
		t.Errorf("no header: err = %v, want ErrMalformed", err)
	}
	// A header cut short is a truncation, not a clean end.
	p = NewBinaryParser(bytes.NewReader([]byte(binaryMagic[:3])))
	if _, err := p.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short header: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestBinaryTruncatedEvent(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Emit(sampleEvent())
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop mid-event at several points; every cut must error, not silently
	// succeed with garbage.
	for cut := len(binaryMagic) + 1; cut < len(full)-1; cut += 3 {
		_, err := ParseAllBinary(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestBinaryDanglingDictRef(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	// seq delta=-1, pid=1, name = dictionary ref 5 (never introduced).
	buf.Write([]byte{1, 1, 5})
	if _, err := ParseAllBinary(&buf); err == nil {
		t.Error("dangling dictionary reference accepted")
	}
}

func TestBinaryWriterErrorSticky(t *testing.T) {
	w := NewBinaryWriter(failingWriter{})
	w.Emit(sampleEvent())
	if err := w.Flush(); err == nil {
		t.Error("writer error not propagated")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func TestBinaryLargeTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	var want []Event
	names := []string{"open", "read", "write", "close", "lseek"}
	for i := 0; i < 10_000; i++ {
		ev := Event{
			Seq: uint64(i + 1), PID: 1 + rng.Intn(3),
			Name: names[rng.Intn(len(names))],
			Args: map[string]int64{"fd": int64(rng.Intn(20)), "count": rng.Int63n(1 << 30)},
			Ret:  int64(rng.Intn(1 << 20)),
		}
		if rng.Intn(5) == 0 {
			ev.Err = sys.ENOENT
			ev.Ret = -int64(sys.ENOENT)
		}
		want = append(want, ev)
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseAllBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !eventsEquivalent(&got[i], &want[i]) {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestBinaryV2RoundTrip(t *testing.T) {
	// Sequence numbers that exercise the delta encoding hard: monotonic
	// steps, repeats, large jumps, a backwards jump (negative delta), and
	// the extremes of the uint64 domain (wraparound deltas).
	seqs := []uint64{1, 2, 3, 3, 1 << 40, 7, 0, ^uint64(0), 5}
	var events []Event
	for i, seq := range seqs {
		events = append(events, Event{
			Seq: seq, PID: i + 1, Name: "write",
			Args: map[string]int64{"fd": 3, "count": int64(i * 100)},
			Ret:  int64(i * 100),
		})
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, ev := range events {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseAllBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d, want %d", len(got), len(events))
	}
	for i := range events {
		if !eventsEquivalent(&got[i], &events[i]) {
			t.Errorf("event %d:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

// TestBinaryUnknownVersion: only format v2 is read. An unknown version and
// the retired v1 (absolute seq), even in an otherwise well-formed stream,
// are malformed, and the error says which.
func TestBinaryUnknownVersion(t *testing.T) {
	v1 := []byte(binaryMagicPrefix + "\x01")
	v1 = binary.AppendUvarint(v1, 7) // absolute seq
	v1 = binary.AppendUvarint(v1, 1) // pid
	v1 = append(v1, 0, 4)            // name: new dict entry, 4 bytes
	v1 = append(v1, "sync"...)
	v1 = append(v1, 0, 0, 0, 0) // no strs, no args, ret 0, errno 0
	for _, c := range []struct {
		stream []byte
		msg    string
	}{
		{[]byte(binaryMagicPrefix + "\x03"), "unsupported binary format version 3"},
		{v1, "version 1 is retired"},
	} {
		_, err := ParseAllBinary(bytes.NewReader(c.stream))
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%q: err = %v, want ErrMalformed saying %q", c.stream[:5], err, c.msg)
		}
	}
}

func TestBinaryPIDOverflowRejected(t *testing.T) {
	// A pid uvarint >= 2^63 used to wrap negative through int(pid); both
	// decoders must now reject it as malformed.
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	seqPid := binary.AppendVarint(nil, 1)        // seq delta
	seqPid = binary.AppendUvarint(seqPid, 1<<63) // pid: wraps negative as int
	buf.Write(seqPid)
	if _, err := ParseAllBinary(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrMalformed) {
		t.Errorf("BinaryParser: pid 2^63 err = %v, want ErrMalformed", err)
	}
	d := NewBatchDecoder(bytes.NewReader(buf.Bytes()))
	var ev Event
	if _, err := d.Next(&ev); !errors.Is(err, ErrMalformed) {
		t.Errorf("BatchDecoder: pid 2^63 err = %v, want ErrMalformed", err)
	}
}
