package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"iocov/internal/sys"
)

func sampleEvent() Event {
	return Event{
		Seq:  42,
		PID:  7,
		Name: "openat",
		Path: "/mnt/test/f0",
		Strs: map[string]string{"filename": "/mnt/test/f0"},
		Args: map[string]int64{"dfd": -100, "flags": 577, "mode": 420},
		Ret:  3,
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ev1 := sampleEvent()
	ev2 := Event{
		Seq: 43, PID: 7, Name: "write",
		Args: map[string]int64{"fd": 3, "count": 4096},
		Ret:  -int64(sys.ENOSPC), Err: sys.ENOSPC,
	}
	w.Emit(ev1)
	w.Emit(ev2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseAll(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d events, want 2", len(got))
	}
	if !reflect.DeepEqual(got[0], ev1) {
		t.Errorf("event 1:\n got %+v\nwant %+v", got[0], ev1)
	}
	if !reflect.DeepEqual(got[1], ev2) {
		t.Errorf("event 2:\n got %+v\nwant %+v", got[1], ev2)
	}
}

func TestRoundTripQuirkyStrings(t *testing.T) {
	paths := []string{
		`/mnt/test/with space`,
		`/mnt/test/quote"inside`,
		`/mnt/test/back\slash`,
		`/mnt/test/newline\n`,
		"/mnt/test/\x01control",
		`/mnt/test/unicode-日本語`,
		`/mnt/test/comma, equals = brace }`,
	}
	for _, p := range paths {
		ev := Event{Seq: 1, PID: 1, Name: "open", Path: p,
			Strs: map[string]string{"filename": p},
			Args: map[string]int64{"flags": 0, "mode": 0}, Ret: 3}
		var buf bytes.Buffer
		if err := WriteEvent(&buf, ev); err != nil {
			t.Fatal(err)
		}
		got, err := ParseAll(&buf)
		if err != nil {
			t.Fatalf("path %q: %v", p, err)
		}
		if got[0].Path != p {
			t.Errorf("path %q round-tripped to %q", p, got[0].Path)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	names := []string{"open", "read", "write", "lseek", "setxattr", "close"}
	cfg := &quick.Config{MaxCount: 300}
	f := func(seq uint64, pid uint16, nameIdx uint8, flags int64, count int64, fail bool, pathSuffix string) bool {
		if count < 0 {
			count = -count // syscall byte counts are non-negative
		}
		ev := Event{
			Seq:  seq,
			PID:  int(pid),
			Name: names[int(nameIdx)%len(names)],
			Args: map[string]int64{"flags": flags, "count": count},
		}
		if pathSuffix != "" {
			path := "/mnt/test/" + strings.ReplaceAll(pathSuffix, "\x00", "_")
			ev.Path = path
			ev.Strs = map[string]string{"filename": path}
		}
		if fail {
			ev.Err = sys.ENOENT
			ev.Ret = -int64(sys.ENOENT)
		} else {
			ev.Ret = count
		}
		var buf bytes.Buffer
		if err := WriteEvent(&buf, ev); err != nil {
			return false
		}
		got, err := ParseAll(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		return reflect.DeepEqual(got[0], ev)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestParserSkipsCommentsAndBlanks(t *testing.T) {
	input := "# a comment\n\n[00000001] syscall_exit_close: pid = 1 { fd = 3 } ret = 0\n"
	got, err := ParseAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "close" {
		t.Errorf("got %+v", got)
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"garbage",
		"[1] syscall_exit_open pid = 1 { } ret = 0",
		"[00000001] syscall_exit_open: pid = x { } ret = 0",
		"[00000001] syscall_exit_open: pid = 1 { flags = zz } ret = 0",
		"[00000001] syscall_exit_open: pid = 1 { } ret = abc",
		`[00000001] syscall_exit_open: pid = 1 { } ret = -2 (EBOGUS)`,
		`[00000001] syscall_exit_open: pid = 1 { } ret = -2 (EACCES)`, // mismatched errno
		`[00000001] syscall_exit_open: pid = 1 { filename = "unterminated } ret = 0`,
		`[] syscall_exit_: pid = 0 { } ret = 0`,                            // empty syscall name
		`[00000001] syscall_exit_open: pid = 1 {, = ""} ret = 0`,           // empty argument name
		`[00000001] syscall_exit_open: pid = 1 { a = 1,, ,b = 2 } ret = 0`, // comma in a name
	}
	for _, line := range bad {
		if _, err := ParseAll(strings.NewReader(line)); err == nil {
			t.Errorf("no error for %q", line)
		}
	}
}

func TestParserEOF(t *testing.T) {
	p := NewParser(strings.NewReader(""))
	if _, err := p.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestFilterPathBased(t *testing.T) {
	f, err := NewFilter(`^/mnt/test(/|$)`)
	if err != nil {
		t.Fatal(err)
	}
	keep := Event{Name: "mkdir", Path: "/mnt/test/d", PID: 1}
	drop := Event{Name: "mkdir", Path: "/var/log/d", PID: 1}
	if !f.Keep(keep) {
		t.Error("in-mount mkdir dropped")
	}
	if f.Keep(drop) {
		t.Error("out-of-mount mkdir kept")
	}
	kept, dropped := f.Stats()
	if kept != 1 || dropped != 1 {
		t.Errorf("stats = %d,%d", kept, dropped)
	}
}

func TestFilterFdTracking(t *testing.T) {
	f, _ := NewFilter(`^/mnt/test(/|$)`)
	events := []Event{
		{Name: "open", Path: "/mnt/test/a", PID: 1, Ret: 3},
		{Name: "open", Path: "/etc/passwd", PID: 1, Ret: 4},
		{Name: "write", PID: 1, Args: map[string]int64{"fd": 3, "count": 10}, Ret: 10},
		{Name: "write", PID: 1, Args: map[string]int64{"fd": 4, "count": 10}, Ret: 10},
		{Name: "close", PID: 1, Args: map[string]int64{"fd": 3}},
		{Name: "write", PID: 1, Args: map[string]int64{"fd": 3, "count": 5}, Ret: 5},
	}
	var kept []string
	for _, ev := range events {
		if f.Keep(ev) {
			kept = append(kept, ev.Name)
		}
	}
	// Kept: the in-mount open, the fd-3 write, the fd-3 close. The write to
	// fd 4 (/etc/passwd) and the post-close fd-3 write are dropped.
	want := []string{"open", "write", "close"}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("kept = %v, want %v", kept, want)
	}
}

func TestFilterFdReuseAcrossMounts(t *testing.T) {
	f, _ := NewFilter(`^/mnt/test(/|$)`)
	events := []Event{
		{Name: "open", Path: "/mnt/test/a", PID: 1, Ret: 3},
		{Name: "close", PID: 1, Args: map[string]int64{"fd": 3}},
		{Name: "open", Path: "/etc/x", PID: 1, Ret: 3}, // fd reused elsewhere
		{Name: "read", PID: 1, Args: map[string]int64{"fd": 3, "count": 1}, Ret: 1},
	}
	var keptReads int
	for _, ev := range events {
		if f.Keep(ev) && ev.Name == "read" {
			keptReads++
		}
	}
	if keptReads != 0 {
		t.Errorf("foreign fd read leaked through filter")
	}
}

func TestFilterPerPIDIsolation(t *testing.T) {
	f, _ := NewFilter(`^/mnt/test(/|$)`)
	f.Keep(Event{Name: "open", Path: "/mnt/test/a", PID: 1, Ret: 3})
	// Same fd number in a different pid is not tracked.
	if f.Keep(Event{Name: "read", PID: 2, Args: map[string]int64{"fd": 3, "count": 1}}) {
		t.Error("fd table leaked across pids")
	}
}

func TestFilterFailedOpenNotTracked(t *testing.T) {
	f, _ := NewFilter(`^/mnt/test(/|$)`)
	// A failed open is still an in-mount event (IOCov wants its output
	// coverage) but must not install an fd.
	ev := Event{Name: "open", Path: "/mnt/test/a", PID: 1, Ret: -2, Err: sys.ENOENT}
	if !f.Keep(ev) {
		t.Error("failed in-mount open dropped")
	}
	if f.Keep(Event{Name: "read", PID: 1, Args: map[string]int64{"fd": -2, "count": 1}}) {
		t.Error("negative fd tracked")
	}
}

func TestFilterApply(t *testing.T) {
	f, _ := NewFilter(`^/mnt/test(/|$)`)
	events := []Event{
		{Name: "mkdir", Path: "/mnt/test/d", PID: 1},
		{Name: "mkdir", Path: "/home/u/d", PID: 1},
		{Name: "chdir", Path: "/mnt/test/d", PID: 1},
	}
	out := f.Apply(events)
	if len(out) != 2 {
		t.Errorf("kept %d, want 2", len(out))
	}
}

func TestFilterBadPattern(t *testing.T) {
	if _, err := NewFilter(`([`); err == nil {
		t.Error("bad regexp accepted")
	}
}

func TestFilteringSink(t *testing.T) {
	f, _ := NewFilter(`^/mnt/test(/|$)`)
	col := NewCollector()
	sink := &FilteringSink{F: f, Next: col}
	sink.Emit(Event{Name: "mkdir", Path: "/mnt/test/d"})
	sink.Emit(Event{Name: "mkdir", Path: "/elsewhere"})
	if col.Len() != 1 {
		t.Errorf("collected %d, want 1", col.Len())
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	m := MultiSink{a, b}
	m.Emit(Event{Name: "open"})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out failed: %d, %d", a.Len(), b.Len())
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Name: "open"})
	c.Reset()
	if c.Len() != 0 {
		t.Error("reset did not clear")
	}
}

func TestLargeTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []Event
	for i := 0; i < 5000; i++ {
		ev := Event{
			Seq:  uint64(i + 1),
			PID:  1 + rng.Intn(4),
			Name: "write",
			Args: map[string]int64{"fd": int64(3 + rng.Intn(10)), "count": int64(rng.Intn(1 << 20))},
		}
		ev.Ret = ev.Args["count"]
		want = append(want, ev)
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}
