package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"iocov/internal/sys"
)

// refParser is the reference decoder for the binary format: a direct,
// bufio-based reading of the layout documented in binary.go, written
// independently of BatchDecoder's block-buffer walk. The fuzzers and the
// differential tests decode the same bytes with both and require them to
// agree on every event, every budget, and accept-vs-reject.
type refParser struct {
	br      *bufio.Reader
	dict    []string
	read    bool
	prevSeq uint64
	// evBytes tracks the literal string bytes the current event has
	// introduced, enforcing maxEventBytes.
	evBytes int
}

func newRefParser(r io.Reader) *refParser {
	return &refParser{br: bufio.NewReaderSize(r, 1<<16)}
}

func (p *refParser) header() error {
	buf := make([]byte, len(binaryMagic))
	n, err := io.ReadFull(p.br, buf)
	if err != nil {
		if n == 0 {
			// The header is mandatory: a zero-byte stream is malformed.
			return fmt.Errorf("trace: missing binary header: %w", ErrMalformed)
		}
		return fmt.Errorf("trace: short binary header: %w", unexpectedEOF(err))
	}
	// Spelled out rather than taken from binaryMagic, so a change to the
	// production header shows up as a divergence.
	if string(buf) != "IOCV\x02" {
		return fmt.Errorf("trace: bad binary header %q: %w", buf, ErrMalformed)
	}
	p.read = true
	return nil
}

// errVarintOverflow captures encoding/binary's unexported overflow sentinel
// by probing it once, so the parser can classify overlong varints as
// malformed input by identity rather than by message matching.
var errVarintOverflow = func() error {
	overlong := bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64)
	_, err := binary.ReadUvarint(bytes.NewReader(overlong))
	return err
}()

// varintErr types a varint decode failure: EOF and transport errors pass
// through untouched; the stdlib overflow sentinel becomes ErrMalformed.
func varintErr(err error) error {
	if err == errVarintOverflow {
		return fmt.Errorf("trace: varint overflows 64 bits: %w", ErrMalformed)
	}
	return err
}

func (p *refParser) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(p.br)
	return v, varintErr(err)
}

func (p *refParser) varint() (int64, error) {
	v, err := binary.ReadVarint(p.br)
	return v, varintErr(err)
}

func (p *refParser) str() (string, error) {
	id, err := p.uvarint()
	if err != nil {
		return "", err
	}
	if id != 0 {
		if id > uint64(len(p.dict)) {
			return "", fmt.Errorf("trace: dangling dictionary reference %d: %w", id, ErrMalformed)
		}
		return p.dict[id-1], nil
	}
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("trace: unreasonable string length %d: %w", n, ErrMalformed)
	}
	if p.evBytes += int(n); p.evBytes > maxEventBytes {
		return "", fmt.Errorf("trace: event exceeds %d-byte string budget: %w", maxEventBytes, ErrMalformed)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(p.br, buf); err != nil {
		return "", fmt.Errorf("trace: truncated string: %w", unexpectedEOF(err))
	}
	s := string(buf)
	if len(p.dict) < maxDictEntries {
		p.dict = append(p.dict, s)
	}
	return s, nil
}

// Next returns the next event or io.EOF at a clean end of stream.
func (p *refParser) Next() (Event, error) {
	if !p.read {
		if err := p.header(); err != nil {
			return Event{}, err
		}
	}
	var ev Event
	p.evBytes = 0
	delta, err := p.varint()
	if err != nil {
		return Event{}, err // io.EOF here is the clean end of the stream
	}
	p.prevSeq += uint64(delta)
	ev.Seq = p.prevSeq
	pid, err := p.uvarint()
	if err != nil {
		return Event{}, unexpectedEOF(err)
	}
	if pid > maxIntValue {
		return Event{}, fmt.Errorf("trace: pid %d overflows int: %w", pid, ErrMalformed)
	}
	ev.PID = int(pid)
	if ev.Name, err = p.str(); err != nil {
		return Event{}, unexpectedEOF(err)
	}
	nStrs, err := p.uvarint()
	if err != nil {
		return Event{}, unexpectedEOF(err)
	}
	if nStrs > maxPairs {
		return Event{}, fmt.Errorf("trace: unreasonable string-arg count %d: %w", nStrs, ErrMalformed)
	}
	seen := make(map[string]bool)
	for i := uint64(0); i < nStrs; i++ {
		k, err := p.str()
		if err != nil {
			return Event{}, unexpectedEOF(err)
		}
		v, err := p.str()
		if err != nil {
			return Event{}, unexpectedEOF(err)
		}
		if seen[k] {
			return Event{}, fmt.Errorf("trace: repeated string-arg name %q: %w", k, ErrMalformed)
		}
		seen[k] = true
		ev.AddStr(k, v)
	}
	nArgs, err := p.uvarint()
	if err != nil {
		return Event{}, unexpectedEOF(err)
	}
	if nArgs > maxPairs {
		return Event{}, fmt.Errorf("trace: unreasonable arg count %d: %w", nArgs, ErrMalformed)
	}
	clear(seen)
	for i := uint64(0); i < nArgs; i++ {
		k, err := p.str()
		if err != nil {
			return Event{}, unexpectedEOF(err)
		}
		v, err := p.varint()
		if err != nil {
			return Event{}, unexpectedEOF(err)
		}
		if seen[k] {
			return Event{}, fmt.Errorf("trace: repeated arg name %q: %w", k, ErrMalformed)
		}
		seen[k] = true
		ev.AddArg(k, v)
	}
	if ev.Ret, err = p.varint(); err != nil {
		return Event{}, unexpectedEOF(err)
	}
	errno, err := p.uvarint()
	if err != nil {
		return Event{}, unexpectedEOF(err)
	}
	if errno > maxIntValue {
		return Event{}, fmt.Errorf("trace: errno %d overflows int: %w", errno, ErrMalformed)
	}
	ev.Err = sys.Errno(errno)
	ev.Path = ev.primaryPathArg()
	return ev, nil
}

// parseAllRef reads every event from a binary stream with the reference
// decoder.
func parseAllRef(r io.Reader) ([]Event, error) { return drain(newRefParser(r).Next) }
