package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The binary trace format is the compact counterpart of the text format,
// playing the role of LTTng's CTF stream (the text format corresponds to
// babeltrace's pretty-printed view). Layout:
//
//	magic "IOCV" + version byte 2
//	per event:
//	  zigzag  seq delta     (against the previous event's seq, from 0)
//	  uvarint pid
//	  string  name          (dictionary-compressed, see below)
//	  uvarint nStrs, then nStrs x (string key, string value)
//	  uvarint nArgs, then nArgs x (string key, zigzag varint value)
//	  zigzag  ret
//	  uvarint errno
//
// Strings are dictionary-compressed per stream: uvarint id, where id 0
// introduces a new entry (followed by uvarint length + bytes) and id N
// references the (N-1)th previously introduced string. Syscall names and
// argument keys repeat constantly, so traces shrink by roughly 4x vs text.
// The event's Path is reconstructed from the standard path keys, exactly
// like the text parser does.
//
// Kernel emitters assign monotonically increasing sequence numbers, so the
// seq delta is almost always +1 and encodes in one byte. The delta is
// computed in the uint64 domain, so every (prev, seq) pair — including
// regressions — round-trips exactly. Version 1 (absolute uvarint seq) is
// retired: its magic is rejected as ErrMalformed with a message saying so.

const (
	binaryMagicPrefix = "IOCV"
	binaryMagic       = binaryMagicPrefix + "\x02"
	// binaryVersion is the only format version this package reads or
	// writes.
	binaryVersion = 2
)

// ErrMalformed marks structural decode failures: bad magic, dangling or
// out-of-range dictionary references, and declared sizes over the hard caps
// below. The ingest daemon exposes BatchDecoder to untrusted bytes, so every
// limit violation must surface as a typed error (never a panic or an
// unbounded allocation); callers distinguish a malformed stream
// (errors.Is(err, ErrMalformed)) from a merely truncated one
// (errors.Is(err, io.ErrUnexpectedEOF)).
var ErrMalformed = errors.New("malformed binary trace")

const (
	// maxStringLen caps one dictionary string's declared length. The
	// parser allocates at most this much for a single string no matter
	// what length the stream declares.
	maxStringLen = 1 << 20
	// maxDictEntries caps the per-stream dictionary on BOTH sides: the
	// writer stops interning new strings at the cap (they are still
	// emitted literally) and the parser stops retaining them, so ids stay
	// aligned for arbitrarily long streams while parser memory stays
	// bounded by the cap rather than by the stream length.
	maxDictEntries = 1 << 20
	// maxEventBytes caps the literal string bytes one event may introduce,
	// bounding per-event allocation independently of the 64-pair count
	// caps (64 string pairs of maxStringLen each would otherwise be
	// 128 MiB for a single event).
	maxEventBytes = 1 << 22
	// maxPairs caps the per-event argument-pair counts; no real syscall
	// has more than a handful.
	maxPairs = 64
)

// BinaryWriter serializes events to the binary format. It implements Sink.
type BinaryWriter struct {
	bw      *bufio.Writer
	dict    map[string]uint64
	err     error
	tmp     []byte
	prevSeq uint64
}

// NewBinaryWriter creates a writer and emits the stream header.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	out := &BinaryWriter{bw: bw, dict: make(map[string]uint64), tmp: make([]byte, binary.MaxVarintLen64)}
	_, out.err = bw.WriteString(binaryMagic)
	return out
}

func (w *BinaryWriter) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.tmp, v)
	_, w.err = w.bw.Write(w.tmp[:n])
}

func (w *BinaryWriter) varint(v int64) {
	if w.err != nil {
		return
	}
	n := binary.PutVarint(w.tmp, v)
	_, w.err = w.bw.Write(w.tmp[:n])
}

func (w *BinaryWriter) str(s string) {
	if w.err != nil {
		return
	}
	if id, ok := w.dict[s]; ok {
		w.uvarint(id)
		return
	}
	w.uvarint(0)
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = w.bw.WriteString(s)
	}
	if len(w.dict) < maxDictEntries {
		w.dict[s] = uint64(len(w.dict)) + 1
	}
}

// Emit writes one event. Errors are sticky and reported by Flush.
func (w *BinaryWriter) Emit(ev Event) {
	// uint64 subtraction wraps, and the reader adds it back in the same
	// domain, so any seq sequence round-trips exactly.
	w.varint(int64(ev.Seq - w.prevSeq))
	w.prevSeq = ev.Seq
	w.uvarint(uint64(ev.PID))
	w.str(ev.Name)
	w.uvarint(uint64(ev.numStrs()))
	for _, k := range ev.strNames() {
		w.str(k)
		v, _ := ev.Str(k)
		w.str(v)
	}
	w.uvarint(uint64(ev.numArgs()))
	for _, k := range ev.argNames() {
		w.str(k)
		v, _ := ev.Arg(k)
		w.varint(v)
	}
	w.varint(ev.Ret)
	w.uvarint(uint64(ev.Err))
}

// Flush flushes buffered output and returns the first error.
func (w *BinaryWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// BinaryParser reads events back from the binary format, one Event value
// at a time. It is a thin adapter over BatchDecoder, so it shares the
// decoder's adversarial-input budgets and error classification.
type BinaryParser struct {
	d *BatchDecoder
}

// NewBinaryParser creates a parser over r; the header is validated on the
// first Next call.
func NewBinaryParser(r io.Reader) *BinaryParser {
	return &BinaryParser{d: NewBatchDecoder(r)}
}

// Next returns the next event or io.EOF at a clean end of stream.
func (p *BinaryParser) Next() (Event, error) {
	var ev Event
	if _, err := p.d.Next(&ev); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// checkMagic validates a 5-byte stream header.
func checkMagic(buf []byte) error {
	if len(buf) != len(binaryMagic) || string(buf[:len(binaryMagicPrefix)]) != binaryMagicPrefix {
		return fmt.Errorf("trace: bad binary magic %q: %w", buf, ErrMalformed)
	}
	switch v := buf[len(binaryMagicPrefix)]; v {
	case binaryVersion:
		return nil
	case 1:
		return fmt.Errorf("trace: binary format version 1 is retired, only version %d is read: %w", binaryVersion, ErrMalformed)
	default:
		return fmt.Errorf("trace: unsupported binary format version %d: %w", v, ErrMalformed)
	}
}

// maxIntValue is the largest uvarint that converts to int without wrapping
// negative; pid and errno fields beyond it are structurally malformed.
const maxIntValue = 1<<63 - 1

// ParseAllBinary reads every event from a binary stream.
func ParseAllBinary(r io.Reader) ([]Event, error) {
	p := NewBinaryParser(r)
	var out []Event
	for {
		ev, err := p.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}

// unexpectedEOF converts a mid-event EOF into a hard error so truncated
// traces are reported rather than silently accepted.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
