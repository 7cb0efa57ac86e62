package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"iocov/internal/sys"
)

// FuzzBinaryRoundTrip pins the codec's round-trip contract: any event the
// writer can serialize — whether built through the Args/Strs maps or the
// inline AddArg/AddStr storage — must come back from the parser semantically
// identical, from both the reference decoder and BatchDecoder. The ingest
// daemon depends on this equivalence: clients stream inline-built kernel
// events, the daemon analyzes the decoded form.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(uint64(1), 7, "open", "pathname", "/mnt/test/a", "flags", int64(0x42), int64(3), uint16(0), true)
	f.Add(uint64(99), 1, "write", "", "", "count", int64(-9000), int64(-28), uint16(28), false)
	f.Add(uint64(0), 0, "", "name", "user.attr", "size", int64(1<<40), int64(0), uint16(22), true)
	f.Fuzz(func(t *testing.T, seq uint64, pid int, name, sk, sv, ak string, av, ret int64, errno uint16, inline bool) {
		// The codec only transports non-negative pids (a >= 2^63 wire value
		// is rejected as malformed, by design); fuzz within the contract.
		pid &= 1<<63 - 1
		ev := Event{Seq: seq, PID: pid, Name: name, Ret: ret, Err: sys.Errno(errno)}
		if inline {
			ev.AddStr(sk, sv)
			ev.AddArg(ak, av)
		} else {
			ev.Strs = map[string]string{sk: sv}
			ev.Args = map[string]int64{ak: av}
		}
		check := func(decoder string, g *Event) {
			t.Helper()
			if g.Seq != seq || g.PID != pid || g.Name != name || g.Ret != ret || g.Err != sys.Errno(errno) {
				t.Errorf("%s scalar fields: got %+v", decoder, g)
			}
			if v, ok := g.Str(sk); !ok || v != sv {
				t.Errorf("%s Str(%q) = %q, %v; want %q", decoder, sk, v, ok, sv)
			}
			if v, ok := g.Arg(ak); !ok || v != av {
				t.Errorf("%s Arg(%q) = %d, %v; want %d", decoder, ak, v, ok, av)
			}
			if g.numStrs() != 1 || g.numArgs() != 1 {
				t.Errorf("%s pair counts: %d strs, %d args; want 1, 1", decoder, g.numStrs(), g.numArgs())
			}
			if want := ev.primaryPathArg(); g.Path != want {
				t.Errorf("%s Path = %q, want %q", decoder, g.Path, want)
			}
		}
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		w.Emit(ev)
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		// The reference decoder.
		ref, err := parseAllRef(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reference parse back: %v", err)
		}
		if len(ref) != 1 {
			t.Fatalf("reference parsed %d events, want 1", len(ref))
		}
		check("reference", &ref[0])
		// The batch decoder must agree byte for byte.
		d := NewBatchDecoder(bytes.NewReader(buf.Bytes()))
		var bev Event
		if _, err := d.Next(&bev); err != nil {
			t.Fatalf("batch decode: %v", err)
		}
		check("batch", &bev)
		if _, err := d.Next(&bev); err != io.EOF {
			t.Fatalf("batch decode tail: err = %v, want EOF", err)
		}
	})
}

// FuzzBinaryReaderMalformed feeds the decoders raw untrusted bytes — the
// exact exposure of the daemon's /ingest endpoint — and requires that they
// never panic, always terminate with a clean event or a typed error, and
// agree with each other. The seeds include the pre-hardening crasher: a
// dictionary reference whose 64-bit id wrapped negative when converted to
// int.
func FuzzBinaryReaderMalformed(f *testing.F) {
	// A small valid stream.
	var valid bytes.Buffer
	w := NewBinaryWriter(&valid)
	w.Emit(Event{Seq: 1, PID: 2, Name: "open",
		Strs: map[string]string{"pathname": "/mnt/test/f"},
		Args: map[string]int64{"flags": 66}, Ret: 3})
	w.Emit(Event{Seq: 2, PID: 2, Name: "close", Args: map[string]int64{"fd": 3}})
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(binaryMagic))
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])

	// The old int-overflow crasher: seq, pid, then name = dict ref 1<<63.
	evil := []byte(binaryMagic)
	evil = binary.AppendVarint(evil, 1)      // seq delta
	evil = binary.AppendUvarint(evil, 1)     // pid
	evil = binary.AppendUvarint(evil, 1<<63) // name: huge dictionary id
	f.Add(evil)

	// A declared string length just over the cap, with no data behind it.
	huge := []byte(binaryMagic)
	huge = binary.AppendVarint(huge, 1)               // seq delta
	huge = binary.AppendUvarint(huge, 1)              // pid
	huge = binary.AppendUvarint(huge, 0)              // name: new dict entry
	huge = binary.AppendUvarint(huge, maxStringLen+1) // declared length over cap
	f.Add(huge)

	// A pid that wraps negative when converted to int unchecked.
	bigpid := []byte(binaryMagic)
	bigpid = binary.AppendVarint(bigpid, 1)      // seq delta
	bigpid = binary.AppendUvarint(bigpid, 1<<63) // pid: overflows int
	f.Add(bigpid)

	// The retired v1 header over a valid body, and an unknown version.
	f.Add(append([]byte(binaryMagicPrefix+"\x01"), valid.Bytes()[len(binaryMagic):]...))
	f.Add([]byte(binaryMagicPrefix + "\x07"))
	// The zero-byte stream: must be ErrMalformed, never a silent empty trace.
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Both decoders: never panic, always terminate with a typed error
		// or a clean EOF.
		drain := func(decoder string, next func() (Event, error)) ([]Event, error) {
			var evs []Event
			for i := 0; i < 1<<12; i++ {
				ev, err := next()
				if err == io.EOF {
					return evs, nil
				}
				if err != nil {
					// Any other error must be a typed decode failure, not
					// an unclassified one.
					if !errors.Is(err, ErrMalformed) && !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Fatalf("untyped %s decode error: %v", decoder, err)
					}
					return evs, err
				}
				evs = append(evs, ev)
			}
			return evs, nil
		}
		ref, refErr := drain("reference", newRefParser(bytes.NewReader(data)).Next)
		d := NewBatchDecoder(bytes.NewReader(data))
		got, batchErr := drain("batch", func() (Event, error) {
			var ev Event
			_, err := d.Next(&ev)
			return ev, err
		})

		// The batch decoder must agree with the reference decoder on every
		// event the prefix holds and on accept-vs-reject.
		if len(ref) != len(got) || (refErr == nil) != (batchErr == nil) {
			t.Fatalf("decoder divergence: reference %d events (err %v), batch %d events (err %v)",
				len(ref), refErr, len(got), batchErr)
		}
		for i := range ref {
			if !eventsEquivalent(&got[i], &ref[i]) {
				t.Fatalf("event %d differs:\n batch %+v\n  ref  %+v", i, got[i], ref[i])
			}
		}
	})
}

// fuzzFilterNames covers every branch of the filter's classifier: the
// open family, dup, close, the descriptor syscalls, and path syscalls.
var fuzzFilterNames = []string{
	"open", "openat", "creat", "openat2", "dup", "dup2", "close",
	"read", "write", "lseek", "fchdir", "fsync", "mkdir", "rename", "stat",
}

var fuzzFilterPaths = []string{
	"", "/mnt/test", "/mnt/test/", "/mnt/test/a", "/mnt/testx", "/mnt",
	"/tmp/a", "mnt/test/a", "/mnt/test/../etc",
}

var fuzzFilterPatterns = []string{`^/mnt/test(/|$)`, `^/mnt/te[s]t(/|$)`, `/mnt/test`}

// FuzzFilter drives the mount filter with event streams built from fuzz
// bytes — arbitrary pids, descriptors and return values, including
// negative ones, ones around 4096 and ones past 2^31 — and requires
// every Keep verdict and the final Stats to equal the map-based reference
// in filter_reference_test.go. A reserved op recycles the filter with
// Reset against a fresh reference.
func FuzzFilter(f *testing.F) {
	// Seeds spell out the descriptor lifecycles the reference tracks:
	// tracking, reuse of a slot by an out-of-mount open, dup/dup2
	// propagation (onto huge descriptors too), close, and Reset.
	const (
		in, out              = 3, 6 // fuzzFilterPaths: /mnt/test/a, /tmp/a
		open, dup, dup2, cls = 0, 4, 5, 6
		write, reset         = 8, 15
		// Descriptor selectors (see num): 4096, -1, 2^31, then 8 raw bytes.
		atCap, neg, big, raw = 4 | 2<<3, 5, 7, 6
	)
	small := func(v byte) byte { return v << 3 }
	rec := func(op, pid, bits, arg, ret, p1, p2 byte) []byte {
		return []byte{op, pid, bits, arg, ret, p1, p2}
	}
	var lifecycle, dups, recycle []byte
	lifecycle = append(lifecycle, 0)
	lifecycle = append(lifecycle, rec(open, 1, 0, 0, small(3), in, out)...)
	lifecycle = append(lifecycle, rec(write, 1, 0, small(3), small(9), out, out)...)
	lifecycle = append(lifecycle, rec(open, 1, 0, 0, small(3), out, out)...)
	lifecycle = append(lifecycle, rec(write, 1, 0, small(3), small(9), out, out)...)
	lifecycle = append(lifecycle, rec(open, 2, 1, 0, small(3), in, out)...)
	lifecycle = append(lifecycle, rec(write, 2, 0, small(3), neg, out, out)...)
	dups = append(dups, 1)
	dups = append(dups, rec(open, 1, 0, 0, small(5), in, in)...)
	dups = append(dups, rec(dup, 1, 0, small(5), atCap, out, out)...)
	dups = append(dups, rec(dup2, 1, 4, small(5), big, out, out)...)
	dups = append(dups, rec(cls, 1, 0, small(5), 0, out, out)...)
	dups = append(dups, rec(write, 1, 0, atCap, 0, out, out)...)
	dups = append(dups, rec(write, 1, 0, big, 0, out, out)...)
	dups = append(dups, rec(dup, 1, 0, big, small(5), out, out)...)
	dups = append(dups, rec(write, 1, 0, small(5), 0, out, out)...)
	dups = append(dups, write, 3, 32, raw, 0, 0, 0, 1, 0, 0, 0, 0, 0, in, in) // fd 2^40
	recycle = append(recycle, 2)
	recycle = append(recycle, rec(open, 4, 0, 0, small(7), in, out)...)
	recycle = append(recycle, reset)
	recycle = append(recycle, rec(write, 4, 0, small(7), 0, out, out)...)
	recycle = append(recycle, rec(open, 4, 0, 0, small(9), in, out)...)
	recycle = append(recycle, rec(write, 4, 0, small(7), 0, out, out)...)
	recycle = append(recycle, rec(write, 4, 0, small(9), 0, out, out)...)
	f.Add(lifecycle)
	f.Add(dups)
	f.Add(recycle)
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		num := func() int64 {
			sel := next()
			switch sel % 8 {
			case 4:
				return 4094 + int64(sel>>3)%4
			case 5:
				return -1 - int64(sel>>3)
			case 6:
				var v uint64
				for i := 0; i < 8; i++ {
					v = v<<8 | uint64(next())
				}
				return int64(v)
			case 7:
				return 1<<31 + int64(sel>>3)
			default:
				return int64(sel >> 3)
			}
		}
		pattern := fuzzFilterPatterns[int(next())%len(fuzzFilterPatterns)]
		filter, err := NewFilter(pattern)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefFilter(pattern)
		checkStats := func(when string) {
			kept, dropped := filter.Stats()
			rk, rd := ref.Stats()
			if kept != rk || dropped != rd {
				t.Fatalf("%s: Stats = %d/%d, reference %d/%d", when, kept, dropped, rk, rd)
			}
		}
		for n := 0; pos < len(data) && n < 1<<12; n++ {
			op := int(next()) % (len(fuzzFilterNames) + 1)
			if op == len(fuzzFilterNames) {
				checkStats("before Reset")
				filter.Reset()
				ref = newRefFilter(pattern)
				continue
			}
			ev := Event{Seq: uint64(n), Name: fuzzFilterNames[op], PID: int(int8(next())) % 5}
			bits := next()
			if bits&1 != 0 {
				ev.Err = sys.EBADF
				ev.Ret = -int64(sys.EBADF)
			}
			arg := num()
			if bits&2 == 0 {
				ev.Ret = num()
			}
			switch ev.Name {
			case "dup", "dup2":
				if bits&4 != 0 {
					ev.AddArg("oldfd", arg)
				} else if bits&8 == 0 {
					ev.AddArg("fildes", arg)
				}
			default:
				if bits&8 == 0 {
					ev.AddArg("fd", arg)
				}
			}
			p1 := fuzzFilterPaths[int(next())%len(fuzzFilterPaths)]
			p2 := fuzzFilterPaths[int(next())%len(fuzzFilterPaths)]
			if bits&16 == 0 {
				ev.Path = p1
			}
			ev.AddStr("oldname", p1)
			ev.AddStr("newname", p2)
			if bits&32 != 0 {
				// A third string spills to the Strs map.
				ev.AddStr("target", p2+"/b")
			}
			if got, want := filter.Keep(ev), ref.Keep(&ev); got != want {
				t.Fatalf("event %d (%s pid %d ret %d arg %d path %q): Keep = %v, reference %v",
					n, ev.Name, ev.PID, ev.Ret, arg, ev.Path, got, want)
			}
		}
		checkStats("end of stream")
	})
}

// FuzzTextParser pins the text format's round-trip contract on untrusted
// input (`iocov convert`, `iocov analyze -trace`): whatever the parser
// accepts, WriteEvent must write back as lines the parser reads as the same
// events. Seeds include two former round-trip failures: an empty argument
// name, which WriteEvent wrote as an unparseable `{  = "" }`, and a bare
// negative return for an errno with no name, which WriteEvent wrote with a
// placeholder name the parser rejects.
func FuzzTextParser(f *testing.F) {
	f.Add("[00000042] syscall_exit_openat: pid = 7 { dirfd = -100, filename = \"/mnt/test/f0\", flags = 577, mode = 420 } ret = 3\n" +
		"[00000043] syscall_exit_write: pid = 7 { fd = 3, count = 4096 } ret = -28 (ENOSPC)\n")
	f.Add("# comment\n\n[1] syscall_exit_lseek: pid = 2 { fd = 3, offset = -1, whence = 9 } ret = -22\n")
	f.Add("[2] syscall_exit_setxattr: pid = 1 { path = \"a\\x00b\", name = \"user.\\\"q\\\"\", size = 0 } ret = 0\n")
	f.Add(`[1] syscall_exit_x: pid = 1 { a = 1, ,b = 2, c = 3,, ,d = 4 } ret = 0`)
	f.Add(`[] syscall_exit_: pid = 0 {, = ""} ret = 0`)
	f.Add(`[1] syscall_exit_x: pid = 1 { } ret = -99999`)
	f.Fuzz(func(t *testing.T, input string) {
		events, err := ParseAll(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for _, ev := range events {
			if err := WriteEvent(&buf, ev); err != nil {
				t.Fatalf("WriteEvent: %v", err)
			}
		}
		again, err := ParseAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written events: %v\nwritten:\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("round trip changed the events:\n got %+v\nwant %+v\nwritten:\n%s", again, events, buf.String())
		}
	})
}
