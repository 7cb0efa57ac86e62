package syz

import (
	"strings"
	"testing"

	"iocov/internal/coverage"
	"iocov/internal/kernel"
	"iocov/internal/sys"
	"iocov/internal/vfs"
)

const sampleLog = `
r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./file0\x00', 0x42, 0x1ed)
write(r0, &(0x7f0000000080)="aabb", 0x1000)
lseek(r0, 0x200, 0x0)
close(r0)

# a second program
r0 = open(&(0x7f0000000000)='/tmp/x\x00', 0x0, 0x0)
read(r0, &(0x7f0000000100), 0x80)
close(r0)
`

func TestParseSampleLog(t *testing.T) {
	progs, err := Parse(strings.NewReader(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("parsed %d programs, want 2", len(progs))
	}
	p0 := progs[0]
	if len(p0.Calls) != 4 {
		t.Fatalf("program 0 has %d calls", len(p0.Calls))
	}
	open := p0.Calls[0]
	if open.Name != "openat" || open.Result != 0 {
		t.Errorf("call 0 = %+v", open)
	}
	if open.Args[0].Kind != KindConst || int32(open.Args[0].Const) != sys.AT_FDCWD {
		t.Errorf("dirfd arg = %+v", open.Args[0])
	}
	if open.Args[1].Kind != KindString || open.Args[1].Str != "./file0" {
		t.Errorf("path arg = %+v (NUL should be stripped)", open.Args[1])
	}
	if open.Args[2].Const != 0x42 || open.Args[3].Const != 0x1ed {
		t.Errorf("flags/mode = %+v", open.Args[2:])
	}
	w := p0.Calls[1]
	if w.Name != "write" || w.Args[0].Kind != KindResult || w.Args[0].Ref != 0 {
		t.Errorf("write call = %+v", w)
	}
	if w.Args[1].Kind != KindData || w.Args[1].DataLen != 2 {
		t.Errorf("data arg = %+v", w.Args[1])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"not a call",
		"open(",
		"open(0x",
		"open('unpointered')",
		`open(&(0x7f00)='unterminated)`,
		"write(rX, 0x1)",
		"open(&(0x7f00)=^bogus)",
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("no error for %q", line)
		}
	}
}

func TestParseEscapes(t *testing.T) {
	log := `open(&(0x7f00)='/a\'b\\c\x41\x00', 0x0, 0x0)`
	progs, err := Parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	got := progs[0].Calls[0].Args[0].Str
	if got != `/a'b\cA` {
		t.Errorf("unescaped path = %q", got)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	progs := Generate(GenConfig{Programs: 25, Seed: 3})
	for _, p := range progs {
		text := p.Format()
		back, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("reparse failed: %v\n%s", err, text)
		}
		if len(back) != 1 || len(back[0].Calls) != len(p.Calls) {
			t.Fatalf("round trip changed call count:\n%s", text)
		}
		for i, c := range back[0].Calls {
			if c.Name != p.Calls[i].Name || c.Result != p.Calls[i].Result ||
				len(c.Args) != len(p.Calls[i].Args) {
				t.Fatalf("call %d changed: %+v vs %+v", i, c, p.Calls[i])
			}
		}
	}
}

func TestConvertStatic(t *testing.T) {
	progs, err := Parse(strings.NewReader(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	events, skipped := Convert(progs)
	if skipped != 0 {
		t.Errorf("skipped %d calls", skipped)
	}
	if len(events) != 7 {
		t.Fatalf("converted %d events, want 7", len(events))
	}
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	an.AddAll(events)
	// openat flags 0x42 = O_CREAT|O_RDWR.
	flags := an.InputReport("open", "flags")
	if flags.Count("O_CREAT") != 1 || flags.Count("O_RDWR") != 1 || flags.Count("O_RDONLY") != 1 {
		t.Errorf("flag counts = %v", flags.Rows)
	}
	// write count 0x1000 -> bucket 2^12.
	if an.InputReport("write", "count").Count("2^12") != 1 {
		t.Errorf("write counts = %v", an.InputReport("write", "count").Rows)
	}
	// lseek whence 0 -> SEEK_SET.
	if an.InputReport("lseek", "whence").Count("SEEK_SET") != 1 {
		t.Errorf("whence counts = %v", an.InputReport("lseek", "whence").Rows)
	}
}

func TestConvertSkipsUnknown(t *testing.T) {
	log := "io_uring_setup(0x1, &(0x7f00))\nopen(&(0x7f00)='/f\\x00', 0x0, 0x0)"
	progs, err := Parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	events, skipped := Convert(progs)
	if skipped != 1 || len(events) != 1 {
		t.Errorf("events=%d skipped=%d", len(events), skipped)
	}
}

func TestExecuteBindings(t *testing.T) {
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: an})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})

	log := `
r0 = open(&(0x7f00)='/f0\x00', 0x42, 0x1b6)
write(r0, &(0x7f00)="00", 0x100)
lseek(r0, 0x0, 0x0)
read(r0, &(0x7f00), 0x100)
ftruncate(r0, 0x50)
close(r0)
`
	progs, err := Parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(p, progs)
	if res.Executed != 6 || res.Skipped != 0 {
		t.Fatalf("executed=%d skipped=%d", res.Executed, res.Skipped)
	}
	if res.Failures != 0 {
		t.Errorf("failures = %d", res.Failures)
	}
	// Full output coverage: the read returned real bytes.
	read := an.OutputReport("read")
	if read.Count("OK:2^8") != 1 {
		t.Errorf("read outputs = %v", read.Rows)
	}
	// State really changed.
	if st, e := p.Stat("/f0"); e != sys.OK || st.Size != 0x50 {
		t.Errorf("stat = %+v, %v", st, e)
	}
}

func TestExecuteFailuresAreCounted(t *testing.T) {
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	log := "open(&(0x7f00)='/missing\\x00', 0x0, 0x0)"
	progs, _ := Parse(strings.NewReader(log))
	res := Execute(p, progs)
	if res.Failures != 1 {
		t.Errorf("failures = %d, want 1", res.Failures)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Programs: 10, Seed: 1})
	b := Generate(GenConfig{Programs: 10, Seed: 1})
	if len(a) != len(b) {
		t.Fatal("nondeterministic corpus size")
	}
	for i := range a {
		if a[i].Format() != b[i].Format() {
			t.Fatalf("program %d differs", i)
		}
	}
}

// TestFuzzerEvaluationPipeline is the §6 end-to-end: generate a corpus,
// execute it, and measure the fuzzer's input/output coverage with IOCov.
func TestFuzzerEvaluationPipeline(t *testing.T) {
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: an})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	if e := p.Mkdir("/fuzz", 0o777); e != sys.OK {
		t.Fatal(e)
	}
	corpus := Generate(GenConfig{Programs: 300, Seed: 7})
	res := Execute(p, corpus)
	if res.Executed < 1000 {
		t.Fatalf("executed only %d calls", res.Executed)
	}
	// The fuzzer's skewed constants cover many numeric boundaries...
	wc := an.InputReport("write", "count")
	if wc.Covered() < 8 {
		t.Errorf("fuzzer covered only %d write-size buckets", wc.Covered())
	}
	if an.InputReport("write", "count").Count("=0") == 0 {
		t.Error("fuzzer should hit the zero-size write boundary")
	}
	// ...and plenty of error outputs (fuzzers live on failure paths).
	var openErrs int64
	out := an.OutputReport("open")
	for _, rows := range [][]coverage.Row{out.Rows[1:], out.Extra} {
		for _, row := range rows {
			openErrs += row.Count
		}
	}
	if openErrs == 0 {
		t.Error("fuzzer triggered no open errors")
	}
	// Static conversion of the same corpus yields input coverage without
	// any output coverage beyond the placeholder.
	events, _ := Convert(corpus)
	stat := coverage.NewAnalyzer(coverage.DefaultOptions())
	stat.AddAll(events)
	if stat.Analyzed() == 0 {
		t.Fatal("static conversion produced nothing")
	}
	if got := stat.OutputReport("open"); got.Covered()+len(got.Extra) != 1 {
		// All returns are the unknown placeholder partition ("OK").
		t.Errorf("static output partitions = %v %v, want exactly one", got.Rows, got.Extra)
	}
}
