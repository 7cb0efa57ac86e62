package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"iocov/internal/sys"
)

// BatchDecoder is the ingest fast path: a frame-oriented binary decoder
// that walks raw stream bytes in a reused block buffer and decodes each
// record into a caller-owned Event, so the per-event steady state performs
// no allocation at all — no Event construction, no argument maps, no
// buffered-reader byte calls. It is the package's only decoder: BinaryParser
// is a thin adapter over it, and the fuzz harness checks it against an
// independent reference decoder kept with the tests.
//
// Allocation discipline (statically proven via //iocov:hotpath, pinned by
// TestBatchDecodeSteadyStateAllocs):
//
//   - varints decode straight out of the block buffer; the refill path
//     that straddles a buffer boundary is an acknowledged cold path;
//   - strings resolve through the per-stream dictionary, so after first
//     sight every name, key, and path is an interned string — literal
//     string materialization (first sight, or spill past the dictionary
//     cap) is the cold path;
//   - events decode through Event's inline argument storage, spilling to
//     maps only past the inline capacity (the same contract the kernel's
//     hot-path producers follow).
//
// Next additionally reports the syscall name's dictionary ordinal, which is
// stable for the life of the stream: consumers key per-name dispatch state
// on it (coverage.Batch) and skip per-event string hashing entirely.
type BatchDecoder struct {
	r   io.Reader
	buf []byte
	pos int // next unread byte in buf
	end int // one past the last valid byte in buf
	// rerr is the underlying reader's terminal result (io.EOF or a
	// transport error), held until the buffered bytes are consumed.
	rerr       error
	emptyReads int

	header  bool
	dict    []string
	prevSeq uint64
	// evBytes tracks the literal string bytes the current event has
	// introduced, enforcing maxEventBytes.
	evBytes int
}

// batchBufSize is the decode block size. It matches the writers' buffer so
// a well-formed stream refills about once per flush.
const batchBufSize = 1 << 16

// NewBatchDecoder creates a batch decoder over r. The header is validated
// by the first Next call, or eagerly via ReadHeader.
func NewBatchDecoder(r io.Reader) *BatchDecoder {
	return &BatchDecoder{r: r, buf: make([]byte, batchBufSize)}
}

// Reset rebinds the decoder to a new stream, discarding all per-stream
// state (dictionary contents, sequence base, buffered bytes, parked
// errors) while keeping the block buffer and the dictionary's backing
// array. A Reset decoder is indistinguishable from a fresh one — the
// ingest daemon's session pool depends on that to recycle decoders across
// sessions, including after a stream was rejected mid-decode. Pass nil to
// park the decoder without retaining the previous reader.
func (d *BatchDecoder) Reset(r io.Reader) {
	d.r = r
	d.pos, d.end = 0, 0
	d.rerr = nil
	d.emptyReads = 0
	d.header = false
	clear(d.dict) // drop the string references so the old stream's names can be collected
	d.dict = d.dict[:0]
	d.prevSeq = 0
	d.evBytes = 0
}

// Version returns the binary format version the decoder reads. There is
// only one, 2; callers use it to label what they stream.
func (d *BatchDecoder) Version() int { return binaryVersion }

// ReadHeader validates the stream header eagerly (idempotent). The ingest
// daemon calls it before the decode loop so a missing or foreign header is
// rejected prior to any event work.
//
//iocov:coldpath
func (d *BatchDecoder) ReadHeader() error {
	if d.header {
		return nil
	}
	for d.end-d.pos < len(binaryMagic) {
		if !d.fill() {
			if d.end == d.pos {
				if d.rerr != nil && d.rerr != io.EOF {
					return d.rerr
				}
				return fmt.Errorf("trace: missing binary header: %w", ErrMalformed)
			}
			return fmt.Errorf("trace: short binary header: %w", d.eofErr())
		}
	}
	if err := checkMagic(d.buf[d.pos : d.pos+len(binaryMagic)]); err != nil {
		return err
	}
	d.pos += len(binaryMagic)
	d.header = true
	return nil
}

// fill compacts the unread tail to the front of the buffer and reads more
// bytes from the underlying reader, reporting whether it made progress
// (read at least one new byte). The reader's terminal error is parked in
// rerr, not returned: buffered bytes are always drained first.
//
//iocov:coldpath
func (d *BatchDecoder) fill() bool {
	if d.pos > 0 {
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.pos = 0
	}
	for d.rerr == nil && d.end < len(d.buf) {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.rerr = err
		}
		if n > 0 {
			return true
		}
		if err == nil {
			// A (0, nil) read violates the io.Reader guidance; bound the
			// retries the way bufio does rather than spinning forever.
			if d.emptyReads++; d.emptyReads >= 100 {
				d.rerr = io.ErrNoProgress
			}
		}
	}
	return false
}

// eofErr classifies an exhausted stream mid-value: a transport error passes
// through, a bare EOF becomes ErrUnexpectedEOF (bytes of the current value
// were already consumed).
//
//iocov:coldpath
func (d *BatchDecoder) eofErr() error {
	if d.rerr != nil && d.rerr != io.EOF {
		return d.rerr
	}
	return io.ErrUnexpectedEOF
}

// uvarint decodes one unsigned varint. The fast path requires a maximal
// varint's worth of buffered bytes, so a single branch guards the direct
// buffer walk.
//
//iocov:hotpath
func (d *BatchDecoder) uvarint() (uint64, error) {
	if d.end-d.pos >= binary.MaxVarintLen64 {
		v, n := binary.Uvarint(d.buf[d.pos:d.end])
		if n <= 0 {
			return 0, d.overflowErr()
		}
		d.pos += n
		return v, nil
	}
	return d.uvarintSlow()
}

// uvarintSlow handles the buffer-boundary and end-of-stream cases: refill
// until the varint completes, hitting EOF classification when it cannot.
//
//iocov:coldpath
func (d *BatchDecoder) uvarintSlow() (uint64, error) {
	for {
		v, n := binary.Uvarint(d.buf[d.pos:d.end])
		if n > 0 {
			d.pos += n
			return v, nil
		}
		if n < 0 {
			return 0, d.overflowErr()
		}
		if !d.fill() {
			if d.pos == d.end {
				if d.rerr != nil && d.rerr != io.EOF {
					return 0, d.rerr
				}
				return 0, io.EOF
			}
			return 0, d.eofErr()
		}
	}
}

// overflowErr types an overlong varint as malformed input.
//
//iocov:coldpath
func (d *BatchDecoder) overflowErr() error {
	return fmt.Errorf("trace: varint overflows 64 bits: %w", ErrMalformed)
}

// varint decodes one zigzag varint.
//
//iocov:hotpath
func (d *BatchDecoder) varint() (int64, error) {
	ux, err := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// str decodes one dictionary-compressed string, returning the string and
// its dictionary ordinal (-1 when the string is a literal past the
// dictionary cap). The dictionary-hit path — every string after first
// sight — allocates nothing.
//
//iocov:hotpath
func (d *BatchDecoder) str() (string, int, error) {
	id, err := d.uvarint()
	if err != nil {
		return "", -1, err
	}
	if id != 0 {
		// Validate in the uint64 domain: a 64-bit id converted to int
		// first could wrap negative and index out of bounds.
		if id > uint64(len(d.dict)) {
			return "", -1, d.danglingRefErr(id)
		}
		return d.dict[id-1], int(id - 1), nil
	}
	return d.strLiteral()
}

//iocov:coldpath
func (d *BatchDecoder) danglingRefErr(id uint64) error {
	return fmt.Errorf("trace: dangling dictionary reference %d: %w", id, ErrMalformed)
}

// strLiteral materializes a newly introduced string and interns it in the
// dictionary (until the cap). Cold by construction: a conforming writer
// emits each distinct string literally exactly once per stream.
//
//iocov:coldpath
func (d *BatchDecoder) strLiteral() (string, int, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", -1, err
	}
	if n > maxStringLen {
		return "", -1, fmt.Errorf("trace: unreasonable string length %d: %w", n, ErrMalformed)
	}
	if d.evBytes += int(n); d.evBytes > maxEventBytes {
		return "", -1, fmt.Errorf("trace: event exceeds %d-byte string budget: %w", maxEventBytes, ErrMalformed)
	}
	need := int(n)
	for d.end-d.pos < need {
		if need > len(d.buf) {
			// A string longer than the block: grow the buffer once to hold
			// it contiguously (bounded by maxStringLen).
			grown := make([]byte, need)
			d.end = copy(grown, d.buf[d.pos:d.end])
			d.pos = 0
			d.buf = grown
		}
		if !d.fill() {
			return "", -1, fmt.Errorf("trace: truncated string: %w", d.eofErr())
		}
	}
	s := string(d.buf[d.pos : d.pos+need])
	d.pos += need
	if len(d.dict) < maxDictEntries {
		d.dict = append(d.dict, s)
		return s, len(d.dict) - 1, nil
	}
	return s, -1, nil
}

// Next decodes the next record into *ev (which is reset first) and returns
// the syscall name's per-stream dictionary ordinal (-1 when the name was a
// literal past the dictionary cap). io.EOF marks a clean end of stream; any
// structural failure is ErrMalformed, any truncation io.ErrUnexpectedEOF,
// and transport errors pass through untouched.
//
//iocov:hotpath
func (d *BatchDecoder) Next(ev *Event) (nameID int, err error) {
	if !d.header {
		if err := d.ReadHeader(); err != nil {
			return -1, err
		}
	}
	*ev = Event{}
	d.evBytes = 0
	delta, err := d.varint()
	if err != nil {
		// io.EOF at the seq position is the clean end of the stream.
		return -1, err
	}
	d.prevSeq += uint64(delta)
	ev.Seq = d.prevSeq
	pid, err := d.uvarint()
	if err != nil {
		return -1, unexpectedEOF(err)
	}
	if pid > maxIntValue {
		return -1, d.pidOverflowErr(pid)
	}
	ev.PID = int(pid)
	ev.Name, nameID, err = d.str()
	if err != nil {
		return -1, unexpectedEOF(err)
	}
	nStrs, err := d.uvarint()
	if err != nil {
		return -1, unexpectedEOF(err)
	}
	if nStrs > maxPairs {
		return -1, d.pairCountErr("string-arg", nStrs)
	}
	for i := uint64(0); i < nStrs; i++ {
		k, _, err := d.str()
		if err != nil {
			return -1, unexpectedEOF(err)
		}
		v, _, err := d.str()
		if err != nil {
			return -1, unexpectedEOF(err)
		}
		ev.AddStr(k, v)
	}
	nArgs, err := d.uvarint()
	if err != nil {
		return -1, unexpectedEOF(err)
	}
	if nArgs > maxPairs {
		return -1, d.pairCountErr("arg", nArgs)
	}
	for i := uint64(0); i < nArgs; i++ {
		k, _, err := d.str()
		if err != nil {
			return -1, unexpectedEOF(err)
		}
		v, err := d.varint()
		if err != nil {
			return -1, unexpectedEOF(err)
		}
		ev.AddArg(k, v)
	}
	if ev.Ret, err = d.varint(); err != nil {
		return -1, unexpectedEOF(err)
	}
	errno, err := d.uvarint()
	if err != nil {
		return -1, unexpectedEOF(err)
	}
	if errno > maxIntValue {
		return -1, d.errnoOverflowErr(errno)
	}
	ev.Err = sys.Errno(errno)
	ev.Path = ev.primaryPathArg()
	return nameID, nil
}

//iocov:coldpath
func (d *BatchDecoder) pidOverflowErr(pid uint64) error {
	return fmt.Errorf("trace: pid %d overflows int: %w", pid, ErrMalformed)
}

//iocov:coldpath
func (d *BatchDecoder) errnoOverflowErr(errno uint64) error {
	return fmt.Errorf("trace: errno %d overflows int: %w", errno, ErrMalformed)
}

//iocov:coldpath
func (d *BatchDecoder) pairCountErr(kind string, n uint64) error {
	return fmt.Errorf("trace: unreasonable %s count %d: %w", kind, n, ErrMalformed)
}
