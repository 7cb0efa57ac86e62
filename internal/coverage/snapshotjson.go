package coverage

import (
	"bytes"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"
)

// WriteJSON serializes the snapshot as indented JSON. The bytes are exactly
// what encoding/json's Encoder with SetIndent("", "  ") writes for the
// value with each Counts held as a map[string]int64, trailing newline
// included; the tests keep that encoder as the oracle. The fixed schema is
// appended into one buffer, which is written with one Write. A
// *bytes.Buffer is appended to in place.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	est := s.jsonSize()
	var buf []byte
	if bb, ok := w.(*bytes.Buffer); ok {
		bb.Grow(est)
		buf = bb.AvailableBuffer()
	} else {
		buf = make([]byte, 0, est)
	}
	sw := snapshotWriter{b: buf}
	sw.snapshot(s)
	_, err := w.Write(sw.b)
	return err
}

// jsonSize estimates the indented encoding's length, so that the buffer is
// sized once. The per-space and per-entry sizes slightly overshoot the
// suites' snapshots (about 19 KB estimated for 15.4 KB written); an
// undershoot only costs the buffer one more growth.
func (s *Snapshot) jsonSize() int {
	est := 128
	if s == nil {
		return est
	}
	for _, pool := range [2][]SnapshotSpace{s.Inputs, s.Outputs} {
		for i := range pool {
			sp := &pool[i]
			est += 160 + 24*(len(sp.Counts)+len(sp.Extra)+len(sp.Untested))
		}
	}
	if c := s.OpenCombos; c != nil {
		est += 64 + 24*(len(c.All)+len(c.Rdonly))
	}
	return est
}

// snapshotWriter appends a snapshot's JSON to b.
type snapshotWriter struct {
	b []byte
}

// indents holds a newline and the indentation of the deepest line, four
// levels down (a count inside a space inside a pool).
const indents = "\n        "

// nl starts a line at the given depth.
func (w *snapshotWriter) nl(depth int) { w.b = append(w.b, indents[:1+2*depth]...) }

// field starts a member of an object whose members sit at depth; every
// member but the first follows a comma.
func (w *snapshotWriter) field(depth int, first bool, name string) {
	if !first {
		w.b = append(w.b, ',')
	}
	w.nl(depth)
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *snapshotWriter) snapshot(s *Snapshot) {
	if s == nil {
		w.b = append(w.b, "null\n"...)
		return
	}
	w.b = append(w.b, '{')
	w.field(1, true, "analyzed")
	w.b = strconv.AppendInt(w.b, s.Analyzed, 10)
	w.field(1, false, "skipped")
	w.b = strconv.AppendInt(w.b, s.Skipped, 10)
	w.field(1, false, "inputs")
	w.spaces(s.Inputs)
	w.field(1, false, "outputs")
	w.spaces(s.Outputs)
	if c := s.OpenCombos; c != nil {
		w.field(1, false, "open_combos")
		w.b = append(w.b, '{')
		w.field(2, true, "all")
		w.intMap(c.All, 2)
		w.field(2, false, "rdonly")
		w.intMap(c.Rdonly, 2)
		w.nl(1)
		w.b = append(w.b, '}')
	}
	w.nl(0)
	w.b = append(w.b, "}\n"...)
}

// spaces writes a pool of spaces, a member at depth 1.
func (w *snapshotWriter) spaces(pool []SnapshotSpace) {
	switch {
	case pool == nil:
		w.b = append(w.b, "null"...)
		return
	case len(pool) == 0:
		w.b = append(w.b, "[]"...)
		return
	}
	w.b = append(w.b, '[')
	for i := range pool {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.nl(2)
		w.space(&pool[i])
	}
	w.nl(1)
	w.b = append(w.b, ']')
}

// space writes one space, an element at depth 2.
func (w *snapshotWriter) space(sp *SnapshotSpace) {
	w.b = append(w.b, '{')
	w.field(3, true, "syscall")
	w.b = appendJSONString(w.b, sp.Syscall)
	if sp.Arg != "" {
		w.field(3, false, "arg")
		w.b = appendJSONString(w.b, sp.Arg)
	}
	if sp.Class != "" {
		w.field(3, false, "class")
		w.b = appendJSONString(w.b, sp.Class)
	}
	w.field(3, false, "domain")
	w.b = strconv.AppendInt(w.b, int64(sp.Domain), 10)
	w.field(3, false, "covered")
	w.b = strconv.AppendInt(w.b, int64(sp.Covered), 10)
	w.field(3, false, "counts")
	w.counts(sp.Counts, 3)
	if len(sp.Untested) > 0 {
		w.field(3, false, "untested")
		w.b = append(w.b, '[')
		for i, label := range sp.Untested {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.nl(4)
			w.b = appendJSONString(w.b, label)
		}
		w.nl(3)
		w.b = append(w.b, ']')
	}
	if len(sp.Extra) > 0 {
		w.field(3, false, "extra")
		w.counts(sp.Extra, 3)
	}
	w.nl(2)
	w.b = append(w.b, '}')
}

// counts writes a space's rows at depth as one object, in slice order:
// the rows are already sorted by label.
func (w *snapshotWriter) counts(c Counts, depth int) {
	switch {
	case c == nil:
		w.b = append(w.b, "null"...)
		return
	case len(c) == 0:
		w.b = append(w.b, "{}"...)
		return
	}
	w.b = append(w.b, '{')
	for i, r := range c {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.nl(depth + 1)
		w.b = appendJSONString(w.b, r.Label)
		w.b = append(w.b, ": "...)
		w.b = strconv.AppendInt(w.b, r.Count, 10)
	}
	w.nl(depth)
	w.b = append(w.b, '}')
}

// intMap writes an int-keyed map at depth. encoding/json writes each key
// as its decimal string and sorts by that string, so "10" precedes "2".
func (w *snapshotWriter) intMap(m map[int]int64, depth int) {
	switch {
	case m == nil:
		w.b = append(w.b, "null"...)
		return
	case len(m) == 0:
		w.b = append(w.b, "{}"...)
		return
	}
	var small [32]int
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareDecimal)
	w.b = append(w.b, '{')
	for i, k := range keys {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.nl(depth + 1)
		w.b = append(w.b, '"')
		w.b = strconv.AppendInt(w.b, int64(k), 10)
		w.b = append(w.b, `": `...)
		w.b = strconv.AppendInt(w.b, m[k], 10)
	}
	w.nl(depth)
	w.b = append(w.b, '}')
}

// compareDecimal orders two ints by their decimal strings.
func compareDecimal(x, y int) int {
	var bx, by [20]byte
	return bytes.Compare(strconv.AppendInt(bx[:0], int64(x), 10), strconv.AppendInt(by[:0], int64(y), 10))
}

// jsonSafe marks the ASCII bytes encoding/json writes as they are, with its
// default HTML escaping: every printable byte but '"', '\\', '<', '>' and
// '&'. DEL is printable here.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json does:
// '"' and '\\' and the control bytes \b, \f, \n, \r, \t get their short
// escapes; other control bytes and '<', '>', '&' are written as \u00XX;
// each byte of invalid UTF-8 becomes \ufffd; U+2028 and U+2029 are
// escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
