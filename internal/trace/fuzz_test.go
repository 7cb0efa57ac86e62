package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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
