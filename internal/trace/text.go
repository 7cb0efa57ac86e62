package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"iocov/internal/sys"
)

// The text format mirrors the shape of LTTng's syscall exit records, one
// event per line:
//
//	[00000042] syscall_exit_openat: pid = 7 { dirfd = -100, filename = "/mnt/test/f0", flags = 577, mode = 420 } ret = 3
//	[00000043] syscall_exit_write: pid = 7 { fd = 3, count = 4096 } ret = -28 (ENOSPC)
//
// String arguments are quoted with Go quoting (which is a superset of the
// escaping LTTng applies); numeric arguments are decimal. Failed syscalls
// carry ret = -errno followed by the symbolic name in parentheses.

// Writer serializes events to an io.Writer in the text format. It implements
// Sink. Call Flush before reading the output.
type Writer struct {
	bw  *bufio.Writer
	err error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Emit writes one event line. Errors are sticky and reported by Flush.
func (w *Writer) Emit(ev Event) {
	if w.err != nil {
		return
	}
	w.err = WriteEvent(w.bw, ev)
}

// Flush flushes buffered output and returns the first error encountered.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// WriteEvent serializes a single event line to w.
func WriteEvent(w io.Writer, ev Event) error {
	var b strings.Builder
	fmt.Fprintf(&b, "[%08d] syscall_exit_%s: pid = %d {", ev.Seq, ev.Name, ev.PID)
	first := true
	for _, k := range ev.strNames() {
		if !first {
			b.WriteString(",")
		}
		first = false
		v, _ := ev.Str(k)
		fmt.Fprintf(&b, " %s = %s", k, strconv.Quote(v))
	}
	for _, k := range ev.argNames() {
		if !first {
			b.WriteString(",")
		}
		first = false
		v, _ := ev.Arg(k)
		fmt.Fprintf(&b, " %s = %d", k, v)
	}
	b.WriteString(" }")
	if ev.Err == sys.OK {
		fmt.Fprintf(&b, " ret = %d", ev.Ret)
	} else if _, known := sys.ErrnoByName(ev.Err.Name()); known {
		fmt.Fprintf(&b, " ret = %d (%s)", -int64(ev.Err), ev.Err.Name())
	} else {
		// The parser reads a bare negative return as that errno, and would
		// reject the placeholder name an unknown errno renders as.
		fmt.Fprintf(&b, " ret = %d", -int64(ev.Err))
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ParseError reports a malformed trace line.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("trace: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// Parser reads events back from the text format.
type Parser struct {
	sc   *bufio.Scanner
	line int
}

// NewParser returns a Parser reading from r.
func NewParser(r io.Reader) *Parser {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	return &Parser{sc: sc}
}

// Next returns the next event, io.EOF at end of input, or a *ParseError.
// Blank lines and lines starting with '#' are skipped.
func (p *Parser) Next() (Event, error) {
	for p.sc.Scan() {
		p.line++
		text := strings.TrimSpace(p.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		ev, err := parseLine(text)
		if err != nil {
			return Event{}, &ParseError{Line: p.line, Text: text, Msg: err.Error()}
		}
		return ev, nil
	}
	if err := p.sc.Err(); err != nil {
		return Event{}, err
	}
	return Event{}, io.EOF
}

// ParseAll reads every event from r.
func ParseAll(r io.Reader) ([]Event, error) {
	p := NewParser(r)
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

func parseLine(text string) (Event, error) {
	var ev Event

	rest, ok := strings.CutPrefix(text, "[")
	if !ok {
		return ev, fmt.Errorf("missing sequence prefix")
	}
	seqStr, rest, ok := strings.Cut(rest, "] syscall_exit_")
	if !ok {
		return ev, fmt.Errorf("missing syscall_exit marker")
	}
	seq, err := strconv.ParseUint(strings.TrimLeft(seqStr, "0 "), 10, 64)
	if err != nil && strings.Trim(seqStr, "0") != "" {
		return ev, fmt.Errorf("bad sequence %q", seqStr)
	}
	ev.Seq = seq

	name, rest, ok := strings.Cut(rest, ": pid = ")
	if !ok {
		return ev, fmt.Errorf("missing pid")
	}
	if name == "" {
		return ev, fmt.Errorf("empty syscall name")
	}
	ev.Name = name

	pidStr, rest, ok := strings.Cut(rest, " {")
	if !ok {
		return ev, fmt.Errorf("missing argument block")
	}
	pid, err := strconv.Atoi(strings.TrimSpace(pidStr))
	if err != nil {
		return ev, fmt.Errorf("bad pid %q", pidStr)
	}
	ev.PID = pid

	argBlock, retPart, ok := cutLast(rest, "} ret = ")
	if !ok {
		return ev, fmt.Errorf("missing return value")
	}
	if err := parseArgs(strings.TrimSpace(argBlock), &ev); err != nil {
		return ev, err
	}
	if err := parseRet(strings.TrimSpace(retPart), &ev); err != nil {
		return ev, err
	}
	ev.Path = ev.primaryPathArg()
	return ev, nil
}

// cutLast cuts s at the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	idx := strings.LastIndex(s, sep)
	if idx < 0 {
		return s, "", false
	}
	return s[:idx], s[idx+len(sep):], true
}

func parseArgs(block string, ev *Event) error {
	block = strings.TrimSpace(block)
	if block == "" {
		return nil
	}
	for len(block) > 0 {
		eq := strings.Index(block, " = ")
		if eq < 0 {
			return fmt.Errorf("malformed argument block near %q", block)
		}
		// WriteEvent separates arguments with commas, so a name that is
		// empty or holds one could not be written back unambiguously.
		key := strings.TrimSpace(strings.TrimPrefix(block[:eq], ","))
		if key == "" || strings.Contains(key, ",") {
			return fmt.Errorf("bad argument name %q", key)
		}
		val := block[eq+3:]
		if strings.HasPrefix(val, "\"") {
			str, rest, err := scanQuoted(val)
			if err != nil {
				return err
			}
			if ev.Strs == nil {
				ev.Strs = make(map[string]string)
			}
			ev.Strs[key] = str
			block = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ","))
		} else {
			numStr, rest, _ := strings.Cut(val, ",")
			n, err := strconv.ParseInt(strings.TrimSpace(numStr), 10, 64)
			if err != nil {
				return fmt.Errorf("bad numeric argument %s=%q", key, numStr)
			}
			if ev.Args == nil {
				ev.Args = make(map[string]int64)
			}
			ev.Args[key] = n
			block = strings.TrimSpace(rest)
		}
	}
	return nil
}

// scanQuoted extracts a leading Go-quoted string and returns the remainder.
func scanQuoted(s string) (value, rest string, err error) {
	if !strings.HasPrefix(s, "\"") {
		return "", "", fmt.Errorf("expected quoted string near %q", s)
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			v, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", fmt.Errorf("bad quoted string %q: %v", s[:i+1], err)
			}
			return v, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string %q", s)
}

func parseRet(s string, ev *Event) error {
	numStr, errName, hasErr := strings.Cut(s, " (")
	n, err := strconv.ParseInt(strings.TrimSpace(numStr), 10, 64)
	if err != nil {
		return fmt.Errorf("bad return value %q", s)
	}
	if hasErr {
		errName = strings.TrimSuffix(errName, ")")
		e, ok := sys.ErrnoByName(errName)
		if !ok {
			return fmt.Errorf("unknown errno %q", errName)
		}
		if int64(e) != -n {
			return fmt.Errorf("errno %s does not match ret %d", errName, n)
		}
		ev.Err = e
		ev.Ret = n
		return nil
	}
	if n < 0 {
		ev.Err = sys.Errno(-n)
	}
	ev.Ret = n
	return nil
}
