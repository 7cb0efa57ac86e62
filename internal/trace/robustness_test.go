package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"iocov/internal/sys"
)

// corpusBytes builds a valid trace in both formats for mutation testing.
func corpusBytes(t *testing.T) (text, bin []byte) {
	t.Helper()
	events := []Event{
		{Seq: 1, PID: 1, Name: "openat", Path: "/mnt/test/f",
			Strs: map[string]string{"filename": "/mnt/test/f"},
			Args: map[string]int64{"dfd": -100, "flags": 577, "mode": 420}, Ret: 3},
		{Seq: 2, PID: 1, Name: "write",
			Args: map[string]int64{"fd": 3, "count": 4096}, Ret: 4096},
		{Seq: 3, PID: 1, Name: "close",
			Args: map[string]int64{"fd": 3}, Ret: -int64(sys.EBADF), Err: sys.EBADF},
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

// TestFilterNeverPanicsOnArbitraryEvents: events with nil maps, weird
// names, and hostile paths pass through the filter without panics.
func TestFilterNeverPanicsOnArbitraryEvents(t *testing.T) {
	f, _ := NewFilter(`^/mnt/test(/|$)`)
	events := []Event{
		{},
		{Name: "close"},
		{Name: "read", Args: map[string]int64{}},
		{Name: "open", Ret: 3},
		{Name: "open", Path: "\x00\xff", Ret: 3},
		{Name: "write", Args: map[string]int64{"fd": -1 << 62}},
		{Name: "rename", Strs: map[string]string{"oldname": "", "newname": "/"}},
	}
	for _, ev := range events {
		_ = f.Keep(ev)
	}
}
