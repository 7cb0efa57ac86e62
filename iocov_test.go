package iocov

import (
	"bytes"
	"strings"
	"testing"

	"iocov/internal/kernel"
	"iocov/internal/sys"
	"iocov/internal/vfs"
)

// runSmallWorkload drives a few syscalls through a pipeline's kernel.
func runSmallWorkload(t *testing.T, pipe *Pipeline) {
	t.Helper()
	p := pipe.Kernel.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	if e := p.Mkdir("/mnt", 0o755); e != sys.OK {
		t.Fatal(e)
	}
	if e := p.Mkdir("/mnt/test", 0o755); e != sys.OK {
		t.Fatal(e)
	}
	fd, e := p.Open("/mnt/test/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	if e != sys.OK {
		t.Fatal(e)
	}
	if _, e := p.Write(fd, make([]byte, 4096)); e != sys.OK {
		t.Fatal(e)
	}
	if e := p.Close(fd); e != sys.OK {
		t.Fatal(e)
	}
	// Out-of-mount op the filter must drop.
	if e := p.Mkdir("/other", 0o755); e != sys.OK {
		t.Fatal(e)
	}
}

func TestPipelineLive(t *testing.T) {
	pipe, err := NewPipeline(`^/mnt/test(/|$)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	runSmallWorkload(t, pipe)
	an := pipe.Analyzer
	if an.Analyzed() != 4 { // mkdir of the mount point itself, open, write, close
		t.Errorf("analyzed = %d, want 4", an.Analyzed())
	}
	if got := an.InputReport("open", "flags").Count("O_CREAT"); got != 1 {
		t.Errorf("O_CREAT = %d", got)
	}
	if pipe.FlushTrace() != nil {
		t.Error("FlushTrace without writer should be nil")
	}
}

func TestPipelineTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pipe, err := NewPipeline(`^/mnt/test(/|$)`, &buf)
	if err != nil {
		t.Fatal(err)
	}
	runSmallWorkload(t, pipe)
	if err := pipe.FlushTrace(); err != nil {
		t.Fatal(err)
	}
	// The raw trace contains every event, including filtered ones.
	if !strings.Contains(buf.String(), "/other") {
		t.Error("raw trace missing out-of-mount event")
	}
	// Offline analysis of the captured trace matches the live analyzer.
	an, kept, dropped, err := AnalyzeTrace(&buf, `^/mnt/test(/|$)`)
	if err != nil {
		t.Fatal(err)
	}
	if kept == 0 || dropped == 0 {
		t.Errorf("kept=%d dropped=%d, want both nonzero", kept, dropped)
	}
	if an.Analyzed() != pipe.Analyzer.Analyzed() {
		t.Errorf("offline analyzed %d, live %d", an.Analyzed(), pipe.Analyzer.Analyzed())
	}
	live := pipe.Analyzer.InputReport("open", "flags").Frequencies()
	offline := an.InputReport("open", "flags").Frequencies()
	for i := range live {
		if live[i] != offline[i] {
			t.Fatalf("offline/live coverage differs at %d", i)
		}
	}
}

func TestAnalyzeTraceBadPattern(t *testing.T) {
	if _, _, _, err := AnalyzeTrace(strings.NewReader(""), `([`); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := NewPipeline(`([`, nil); err == nil {
		t.Error("bad pattern accepted by NewPipeline")
	}
}

func TestAnalyzeTraceMalformed(t *testing.T) {
	if _, _, _, err := AnalyzeTrace(strings.NewReader("garbage line\n"), `^/`); err == nil {
		t.Error("malformed trace accepted")
	}
}

func TestTCDHelpers(t *testing.T) {
	pipe, err := NewPipeline(`^/mnt/test(/|$)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	runSmallWorkload(t, pipe)
	rep := pipe.Analyzer.InputReport("open", "flags")
	if rep == nil {
		t.Fatal("no report")
	}
	if tcd := TCD(rep, 1000); tcd <= 0 {
		t.Errorf("TCD = %f, want > 0", tcd)
	}
	// Crossover of a report against itself exists at target 1.
	if cross, ok := TCDCrossover(rep, rep, 1000); !ok || cross != 1 {
		t.Errorf("self-crossover = %d,%v", cross, ok)
	}
}

func TestNewAnalyzerWithOptions(t *testing.T) {
	an := NewAnalyzerWith(Options{MergeVariants: false})
	ev := Event{Name: "openat", Path: "/f", Ret: 3}
	ev.AddArg("flags", 0)
	ev.AddArg("mode", 0)
	an.Add(ev)
	if an.OutputReport("openat") == nil {
		t.Error("unmerged analyzer lost openat space")
	}
}
