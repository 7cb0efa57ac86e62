package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"iocov/internal/sys"
)

// corpusBytes builds a valid trace in both formats for mutation testing.
func corpusBytes(t *testing.T) (text, bin []byte) {
	t.Helper()
	events := []Event{
		withArgs(Event{Seq: 1, PID: 1, Name: "openat", Path: "/mnt/test/f",
			Ret: 3}, strArgs{{"filename", "/mnt/test/f"}}, numArgs{{"dfd", -100}, {"flags", 577}, {"mode", 420}}),
		withArgs(Event{Seq: 2, PID: 1, Name: "write",
			Ret: 4096}, nil, numArgs{{"fd", 3}, {"count", 4096}}),
		withArgs(Event{Seq: 3, PID: 1, Name: "close",
			Ret: -int64(sys.EBADF), Err: sys.EBADF}, nil, numArgs{{"fd", 3}}),
	}
	var tb, bb bytes.Buffer
	tw, bw := NewWriter(&tb), NewBinaryWriter(&bb)
	for _, ev := range events {
		tw.Emit(ev)
		bw.Emit(ev)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), bb.Bytes()
}

// TestTextParserNeverPanics: random single-byte mutations of a valid text
// trace either parse or error — no panics, no hangs.
func TestTextParserNeverPanics(t *testing.T) {
	text, _ := corpusBytes(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		mut := append([]byte(nil), text...)
		for j := 0; j < 1+rng.Intn(4); j++ {
			pos := rng.Intn(len(mut))
			mut[pos] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutation %d: %v\ninput: %q", i, r, mut)
				}
			}()
			_, _ = ParseAll(bytes.NewReader(mut))
		}()
	}
}

// TestBinaryParserNeverPanics: same for the binary format, plus truncations
// and random garbage.
func TestBinaryParserNeverPanics(t *testing.T) {
	_, bin := corpusBytes(t)
	rng := rand.New(rand.NewSource(2))
	check := func(input []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic: %v\ninput: %v", r, input)
			}
		}()
		_, _ = ParseAllBinary(bytes.NewReader(input))
	}
	for i := 0; i < 3000; i++ {
		mut := append([]byte(nil), bin...)
		for j := 0; j < 1+rng.Intn(4); j++ {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		}
		check(mut)
	}
	for i := 0; i < len(bin); i++ {
		check(bin[:i]) // every truncation point
	}
	for i := 0; i < 500; i++ {
		garbage := make([]byte, rng.Intn(200))
		rng.Read(garbage)
		check(append([]byte(binaryMagic), garbage...))
	}
}

// TestBinaryParserBoundsHostileLengths: adversarial length fields must be
// rejected before allocation, not cause OOM.
func TestBinaryParserBoundsHostileLengths(t *testing.T) {
	// Header + seq=1 + pid=1 + new string with a 2^40 length claim.
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	buf.Write([]byte{2, 1, 0})                            // seq delta 1, pid, dict-intro
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}) // uvarint 2^40-ish
	if _, err := ParseAllBinary(&buf); err == nil {
		t.Error("hostile string length accepted")
	}
}

// budgetStream encodes one event whose string pairs are fresh literals of
// the given lengths (pairs of key, value), each filled with its own byte so
// no two are equal and none resolves through the dictionary.
func budgetStream(lens ...int) []byte {
	b := []byte(binaryMagic)
	b = binary.AppendVarint(b, 1)  // seq delta
	b = binary.AppendUvarint(b, 1) // pid
	b = append(b, 0, 0)            // name: new empty literal
	b = binary.AppendUvarint(b, uint64(len(lens)/2))
	for i, n := range lens {
		b = append(b, 0) // new literal
		b = binary.AppendUvarint(b, uint64(n))
		b = append(b, bytes.Repeat([]byte{byte('a' + i)}, n)...)
	}
	return append(b, 0, 0, 0) // no args, ret 0, errno 0
}

// TestBinaryDecoderBudgets pins both allocation caps at their boundaries,
// in BatchDecoder and in the reference decoder: one string may declare up
// to maxStringLen bytes, and one event may introduce up to maxEventBytes
// literal bytes in total, even when every single string is under its cap.
func TestBinaryDecoderBudgets(t *testing.T) {
	m := maxStringLen
	cases := []struct {
		name string
		lens []int
		ok   bool
	}{
		{"string-at-cap", []int{m, 1}, true},
		{"string-over-cap", []int{m + 1, 1}, false},
		{"event-at-budget", []int{m, m, m, m}, true},
		{"event-over-budget", []int{m, m, m, m, 1, 1}, false},
	}
	for _, c := range cases {
		data := budgetStream(c.lens...)
		for _, dec := range []struct {
			name  string
			parse func([]byte) ([]Event, error)
		}{
			{"batch", func(b []byte) ([]Event, error) { return ParseAllBinary(bytes.NewReader(b)) }},
			{"reference", func(b []byte) ([]Event, error) { return parseAllRef(bytes.NewReader(b)) }},
		} {
			evs, err := dec.parse(data)
			if c.ok && (err != nil || len(evs) != 1) {
				t.Errorf("%s/%s: %d events, err %v; want 1 event", c.name, dec.name, len(evs), err)
			}
			if !c.ok && !errors.Is(err, ErrMalformed) {
				t.Errorf("%s/%s: err = %v, want ErrMalformed", c.name, dec.name, err)
			}
		}
	}
}

// TestRepeatedArgumentNameRejected pins the one rule every decoder applies
// to an untrusted event that records an argument name twice in one kind:
// the event is malformed in both formats, so no decoder picks a winner and
// every accepted event round-trips.
func TestRepeatedArgumentNameRejected(t *testing.T) {
	cases := []struct {
		line string
		ev   Event
	}{
		{"[00000001] syscall_exit_read: pid = 1 { fd = 3, count = 10, fd = 4 } ret = 10",
			withArgs(Event{Seq: 1, PID: 1, Name: "read", Ret: 10}, nil, numArgs{{"fd", 3}, {"count", 10}, {"fd", 4}})},
		{`[00000001] syscall_exit_rename: pid = 1 { oldname = "/mnt/test/a", oldname = "/tmp/b" } ret = 0`,
			withArgs(Event{Seq: 1, PID: 1, Name: "rename"}, strArgs{{"oldname", "/mnt/test/a"}, {"oldname", "/tmp/b"}}, nil)},
	}
	for _, c := range cases {
		var pe *ParseError
		if evs, err := ParseAll(strings.NewReader(c.line)); !errors.As(err, &pe) {
			t.Errorf("text %q: %d events, err %v; want a *ParseError", c.line, len(evs), err)
		}
		// The writer emits what the event holds; the decoders refuse it.
		data := encodeEvents(t, []Event{c.ev})
		if evs, err := ParseAllBinary(bytes.NewReader(data)); !errors.Is(err, ErrMalformed) {
			t.Errorf("binary %s: %d events, err %v; want ErrMalformed", c.ev.Name, len(evs), err)
		}
		if evs, err := parseAllRef(bytes.NewReader(data)); !errors.Is(err, ErrMalformed) {
			t.Errorf("reference %s: %d events, err %v; want ErrMalformed", c.ev.Name, len(evs), err)
		}
	}
}

// TestTextParserRejectsWhatBinaryCannotCarry: `iocov convert` turns every
// event the text parser accepts into the binary format, which carries a
// pid and an errno as unsigned varints. A negative pid, and a return of the
// smallest int64 (whose errno would be negative), are malformed text; the
// largest values either format carries are accepted and round-trip.
func TestTextParserRejectsWhatBinaryCannotCarry(t *testing.T) {
	for _, line := range []string{
		"[00000001] syscall_exit_read: pid = -1 { fd = 3, count = 10 } ret = 10",
		"[00000001] syscall_exit_read: pid = 1 { fd = 3, count = 10 } ret = -9223372036854775808",
	} {
		var pe *ParseError
		if evs, err := ParseAll(strings.NewReader(line)); !errors.As(err, &pe) {
			t.Errorf("text %q: %d events, err %v; want a *ParseError", line, len(evs), err)
		}
	}
	edge := "[00000001] syscall_exit_read: pid = 9223372036854775807 { fd = 3, count = 10 } ret = -9223372036854775807"
	evs, err := ParseAll(strings.NewReader(edge))
	if err != nil || len(evs) != 1 {
		t.Fatalf("text %q: %d events, err %v", edge, len(evs), err)
	}
	back, err := ParseAllBinary(bytes.NewReader(encodeEvents(t, evs)))
	if err != nil || len(back) != 1 || !eventsEquivalent(&back[0], &evs[0]) {
		t.Fatalf("binary round trip of %q: %+v, err %v; want %+v", edge, back, err, evs[0])
	}
}

// TestTextParserPairCap: the text parser shares the binary decoder's cap of
// maxPairs pairs per argument kind. An event at the cap is accepted and
// round-trips through the binary format; one over it is malformed.
func TestTextParserPairCap(t *testing.T) {
	line := func(n int, str bool) string {
		var b strings.Builder
		b.WriteString("[00000001] syscall_exit_x: pid = 1 {")
		for i := range n {
			if i > 0 {
				b.WriteString(",")
			}
			if str {
				fmt.Fprintf(&b, " s%d = \"/v%d\"", i, i)
			} else {
				fmt.Fprintf(&b, " a%d = %d", i, i)
			}
		}
		b.WriteString(" } ret = 0")
		return b.String()
	}
	for _, str := range []bool{false, true} {
		evs, err := ParseAll(strings.NewReader(line(maxPairs, str)))
		if err != nil || len(evs) != 1 {
			t.Fatalf("%d pairs (strings %v): %d events, err %v; want 1 event", maxPairs, str, len(evs), err)
		}
		if n := len(evs[0].args()) + len(evs[0].strs()); n != maxPairs {
			t.Errorf("%d pairs (strings %v): parsed %d", maxPairs, str, n)
		}
		back, err := ParseAllBinary(bytes.NewReader(encodeEvents(t, evs)))
		if err != nil || len(back) != 1 || !eventsEquivalent(&back[0], &evs[0]) {
			t.Errorf("%d pairs (strings %v): binary round trip gave %d events, err %v", maxPairs, str, len(back), err)
		}
		var pe *ParseError
		if evs, err := ParseAll(strings.NewReader(line(maxPairs+1, str))); !errors.As(err, &pe) {
			t.Errorf("%d pairs (strings %v): %d events, err %v; want a *ParseError", maxPairs+1, str, len(evs), err)
		}
	}
}

// TestFilterNeverPanicsOnArbitraryEvents: events with no arguments, weird
// names, and hostile paths pass through the filter without panics.
func TestFilterNeverPanicsOnArbitraryEvents(t *testing.T) {
	f, _ := NewFilter(`^/mnt/test(/|$)`)
	events := []Event{
		{},
		{Name: "close"},
		withArgs(Event{Name: "read"}, nil, nil),
		{Name: "open", Ret: 3},
		{Name: "open", Path: "\x00\xff", Ret: 3},
		withArgs(Event{Name: "write"}, nil, numArgs{{"fd", -1 << 62}}),
		withArgs(Event{Name: "rename"}, strArgs{{"oldname", ""}, {"newname", "/"}}, nil),
	}
	for _, ev := range events {
		_ = f.Keep(ev)
	}
}
