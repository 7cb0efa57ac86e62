// Package syz implements the paper's future-work path for evaluating
// fuzzers (§6): "Syzkaller logs syscalls with declarative descriptions,
// which need to be parsed by IOCov."
//
// The package understands a syzlang-style program format:
//
//	r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./file0\x00', 0x42, 0x1ed)
//	write(r0, &(0x7f0000000080)="aa", 0x1000)
//	lseek(r0, 0x200, 0x0)
//	close(r0)
//
// and offers two ways to turn programs into IOCov coverage:
//
//   - static conversion (Convert): each call becomes a trace event carrying
//     its arguments; returns are unknown, so only input coverage is
//     measured — what a fuzzer's corpus alone can tell you;
//   - execution (Executor): the program runs against the simulated kernel,
//     binding r-values to real descriptors, which yields full input AND
//     output coverage.
//
// A corpus generator (Generate) plays the role of the fuzzer itself, so the
// whole fuzzer-evaluation pipeline can run hermetically. The probe table
// (Probe, Suggest) runs the loop the other way: from an untested partition
// to a program that covers it.
package syz

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Arg is one parsed syscall argument.
type Arg struct {
	// Kind discriminates the union below.
	Kind ArgKind
	// Const holds the numeric value for KindConst.
	Const int64
	// Ref holds the r-index for KindResult (r3 -> 3).
	Ref int
	// Str holds the string literal for KindString (NUL stripped).
	Str string
	// DataLen holds the byte length for KindData.
	DataLen int64
}

// ArgKind enumerates argument forms in the log format.
type ArgKind int

// Argument kinds.
const (
	// KindConst is a hex or decimal constant: 0x42, 12.
	KindConst ArgKind = iota
	// KindResult is a reference to a prior call's result: r0.
	KindResult
	// KindString is a pointer to a string literal: &(0x7f..)='path\x00'.
	KindString
	// KindData is a pointer to a data blob: &(0x7f..)="hexbytes".
	KindData
)

// Call is one parsed syscall invocation.
type Call struct {
	// Result is the bound result index (r0 -> 0), or -1 when unbound.
	Result int
	// Name is the raw syscall name ("openat").
	Name string
	// Args are the parsed arguments in order.
	Args []Arg
}

// Program is one syzkaller program: a sequence of calls sharing r-bindings.
type Program struct {
	Calls []Call
}

// Clone returns a deep copy of the program: mutating the copy's calls or
// arguments never aliases the original. The mutation operators in
// internal/evolve clone before editing so corpus programs stay immutable.
func (p Program) Clone() Program {
	out := Program{Calls: make([]Call, len(p.Calls))}
	for i, c := range p.Calls {
		cc := c
		cc.Args = append([]Arg(nil), c.Args...)
		out.Calls[i] = cc
	}
	return out
}

// ParseError reports a malformed program line.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("syz: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// Parse reads programs from r. Programs are separated by blank lines;
// '#' starts a comment line.
func Parse(r io.Reader) ([]Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var progs []Program
	var cur Program
	lineNo := 0
	flush := func() {
		if len(cur.Calls) > 0 {
			progs = append(progs, cur)
			cur = Program{}
		}
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			flush()
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		call, err := parseCall(line)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: err.Error()}
		}
		cur.Calls = append(cur.Calls, call)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return progs, nil
}

func parseCall(line string) (Call, error) {
	call := Call{Result: -1}
	rest := line
	// Optional "rN = " binding.
	if strings.HasPrefix(rest, "r") {
		if eq := strings.Index(rest, " = "); eq > 0 {
			idxStr := rest[1:eq]
			if idx, err := strconv.Atoi(idxStr); err == nil {
				call.Result = idx
				rest = rest[eq+3:]
			}
		}
	}
	open := strings.IndexByte(rest, '(')
	if open <= 0 || !strings.HasSuffix(rest, ")") {
		return call, fmt.Errorf("missing call syntax")
	}
	call.Name = strings.TrimSpace(rest[:open])
	if call.Name == "" {
		return call, fmt.Errorf("empty syscall name")
	}
	argStr := rest[open+1 : len(rest)-1]
	args, err := parseArgs(argStr)
	if err != nil {
		return call, err
	}
	call.Args = args
	return call, nil
}

func parseArgs(s string) ([]Arg, error) {
	var args []Arg
	s = strings.TrimSpace(s)
	for s != "" {
		tok, rest, err := nextArgToken(s)
		if err != nil {
			return nil, err
		}
		arg, err := parseArg(tok)
		if err != nil {
			return nil, err
		}
		args = append(args, arg)
		s = strings.TrimSpace(rest)
	}
	return args, nil
}

// nextArgToken splits off one top-level comma-separated token, respecting
// quotes and parentheses.
func nextArgToken(s string) (token, rest string, err error) {
	depth := 0
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == '\\' {
				i++
			} else if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '(':
			depth++
		case c == ')':
			depth--
			if depth < 0 {
				return "", "", fmt.Errorf("unbalanced parentheses")
			}
		case c == ',' && depth == 0:
			return strings.TrimSpace(s[:i]), s[i+1:], nil
		}
	}
	if quote != 0 {
		return "", "", fmt.Errorf("unterminated quote")
	}
	if depth != 0 {
		return "", "", fmt.Errorf("unbalanced parentheses")
	}
	return strings.TrimSpace(s), "", nil
}

func parseArg(tok string) (Arg, error) {
	switch {
	case strings.HasPrefix(tok, "r"):
		if idx, err := strconv.Atoi(tok[1:]); err == nil {
			return Arg{Kind: KindResult, Ref: idx}, nil
		}
		return Arg{}, fmt.Errorf("bad result reference %q", tok)
	case strings.HasPrefix(tok, "&("):
		// Pointer form: &(0xADDR)='str\x00' or &(0xADDR)="hex" or a bare
		// address &(0xADDR).
		close := strings.Index(tok, ")")
		if close < 0 {
			return Arg{}, fmt.Errorf("bad pointer %q", tok)
		}
		payload := tok[close+1:]
		payload = strings.TrimPrefix(payload, "=")
		switch {
		case payload == "":
			return Arg{Kind: KindData, DataLen: 0}, nil
		case payload[0] == '\'':
			str, err := unquoteSyz(payload)
			if err != nil {
				return Arg{}, err
			}
			return Arg{Kind: KindString, Str: str}, nil
		case payload[0] == '"':
			inner := strings.Trim(payload, `"`)
			return Arg{Kind: KindData, DataLen: int64(len(inner) / 2)}, nil
		default:
			return Arg{}, fmt.Errorf("bad pointer payload %q", payload)
		}
	case strings.HasPrefix(tok, "0x") || strings.HasPrefix(tok, "0X"):
		// Syzkaller prints 64-bit constants like 0xffffffffffffff9c
		// (AT_FDCWD); parse unsigned then reinterpret.
		u, err := strconv.ParseUint(tok[2:], 16, 64)
		if err != nil {
			return Arg{}, fmt.Errorf("bad hex constant %q", tok)
		}
		return Arg{Kind: KindConst, Const: int64(u)}, nil
	default:
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return Arg{}, fmt.Errorf("bad argument %q", tok)
		}
		return Arg{Kind: KindConst, Const: n}, nil
	}
}

// unquoteSyz parses the syzkaller string form './file0\x00'.
func unquoteSyz(s string) (string, error) {
	if len(s) < 2 || s[0] != '\'' || s[len(s)-1] != '\'' {
		return "", fmt.Errorf("bad string literal %q", s)
	}
	body := s[1 : len(s)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		if i+1 >= len(body) {
			return "", fmt.Errorf("trailing backslash in %q", s)
		}
		i++
		switch body[i] {
		case 'x':
			if i+2 >= len(body) {
				return "", fmt.Errorf("bad hex escape in %q", s)
			}
			v, err := strconv.ParseUint(body[i+1:i+3], 16, 8)
			if err != nil {
				return "", fmt.Errorf("bad hex escape in %q", s)
			}
			i += 2
			if v != 0 { // NUL terminators are stripped
				b.WriteByte(byte(v))
			}
		case '\\':
			b.WriteByte('\\')
		case '\'':
			b.WriteByte('\'')
		default:
			return "", fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return b.String(), nil
}

// Format renders a program back to the log format (the inverse of Parse,
// modulo pointer addresses, which are synthesized).
func (p Program) Format() string {
	var b strings.Builder
	addr := int64(0x7f0000000000)
	for _, c := range p.Calls {
		if c.Result >= 0 {
			fmt.Fprintf(&b, "r%d = ", c.Result)
		}
		b.WriteString(c.Name)
		b.WriteByte('(')
		for i, a := range c.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			switch a.Kind {
			case KindConst:
				fmt.Fprintf(&b, "%#x", uint64(a.Const))
			case KindResult:
				fmt.Fprintf(&b, "r%d", a.Ref)
			case KindString:
				fmt.Fprintf(&b, "&(%#x)='%s\\x00'", addr, escapeSyz(a.Str))
				addr += 0x40
			case KindData:
				fmt.Fprintf(&b, "&(%#x)=\"%s\"", addr, strings.Repeat("00", int(a.DataLen)))
				addr += 0x40
			}
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// WritePrograms renders programs blank-line separated — the corpus-file
// form Parse reads back. WritePrograms then Parse round-trips exactly
// (modulo synthesized pointer addresses, which Parse discards anyway).
func WritePrograms(w io.Writer, progs []Program) error {
	for i, p := range progs {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, p.Format()); err != nil {
			return err
		}
	}
	return nil
}

func escapeSyz(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20 || c > 0x7e:
			fmt.Fprintf(&b, "\\x%02x", c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
