package syz

import (
	"slices"
	"strings"
	"testing"

	"iocov/internal/coverage"
	"iocov/internal/kernel"
	"iocov/internal/partition"
	"iocov/internal/sys"
	"iocov/internal/sysspec"
	"iocov/internal/vfs"
)

// narrowWorkload mimics a weak test suite: one open mode, one write size.
func narrowWorkload(p *kernel.Proc) {
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	_, _ = p.Write(fd, make([]byte, 4096))
	_, _ = p.Lseek(fd, 0, sys.SEEK_SET)
	_, _ = p.Read(fd, make([]byte, 4096))
	_ = p.Setxattr("/f", "user.a", make([]byte, 16), 0)
	_ = p.Truncate("/f", 100)
	_ = p.Close(fd)
}

func measuredAnalyzer(t *testing.T, w func(*kernel.Proc)) (*coverage.Analyzer, *kernel.Kernel) {
	t.Helper()
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: an})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	w(p)
	return an, k
}

func TestSuggestProducesParsablePrograms(t *testing.T) {
	an, _ := measuredAnalyzer(t, narrowWorkload)
	progs, truncated := Suggest(an, "/probe", 0)
	if len(progs) < 20 {
		t.Fatalf("only %d suggestions for a narrow workload", len(progs))
	}
	if truncated {
		t.Error("unbounded Suggest reported truncation")
	}
	// Every suggestion is valid syzlang: it round-trips through the
	// parser.
	var text strings.Builder
	for _, p := range progs {
		text.WriteString(p.Format())
		text.WriteByte('\n')
	}
	back, err := Parse(strings.NewReader(text.String()))
	if err != nil {
		t.Fatalf("suggestions do not reparse: %v", err)
	}
	if len(back) != len(progs) {
		t.Errorf("reparsed %d of %d", len(back), len(progs))
	}
}

func TestSuggestMaxBound(t *testing.T) {
	an, _ := measuredAnalyzer(t, narrowWorkload)
	all, truncated := Suggest(an, "", 0)
	if truncated {
		t.Fatal("unbounded Suggest reported truncation")
	}
	progs, truncated := Suggest(an, "", 5)
	if len(progs) != 5 {
		t.Errorf("max ignored: %d programs", len(progs))
	}
	if !truncated {
		t.Error("bound dropped programs but truncated not reported")
	}
	// The bound slices the full candidate set; it must not change which
	// probes come first (a mid-build early return used to silently swallow
	// whole later sections).
	for i := range progs {
		if progs[i].Format() != all[i].Format() {
			t.Errorf("bounded probe %d differs from unbounded prefix", i)
		}
	}
	// A bound equal to (or above) the candidate count is not a truncation.
	exact, truncated := Suggest(an, "", len(all))
	if truncated {
		t.Errorf("max == len reported truncation")
	}
	if len(exact) != len(all) {
		t.Errorf("max == len returned %d of %d", len(exact), len(all))
	}
}

// TestSuggestClosesCoverageGaps is the full feedback loop: measure a weak
// suite, generate probes for its untested partitions, execute them, and
// verify coverage strictly improves in every targeted dimension.
func TestSuggestClosesCoverageGaps(t *testing.T) {
	an, k := measuredAnalyzer(t, narrowWorkload)

	before := map[string]int{
		"open.flags":      an.InputReport("open", "flags").Covered(),
		"write.count":     an.InputReport("write", "count").Covered(),
		"setxattr.size":   an.InputReport("setxattr", "size").Covered(),
		"lseek.whence":    an.InputReport("lseek", "whence").Covered(),
		"truncate.length": an.InputReport("truncate", "length").Covered(),
	}

	progs, _ := Suggest(an, "/probe", 0)
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	if e := p.Mkdir("/probe", 0o777); e != sys.OK {
		t.Fatal(e)
	}
	res := Execute(p, progs)
	if res.Executed == 0 {
		t.Fatal("no probe calls executed")
	}

	after := map[string]int{
		"open.flags":      an.InputReport("open", "flags").Covered(),
		"write.count":     an.InputReport("write", "count").Covered(),
		"setxattr.size":   an.InputReport("setxattr", "size").Covered(),
		"lseek.whence":    an.InputReport("lseek", "whence").Covered(),
		"truncate.length": an.InputReport("truncate", "length").Covered(),
	}
	for dim, b := range before {
		if after[dim] <= b {
			t.Errorf("%s coverage did not improve: %d -> %d", dim, b, after[dim])
		}
	}
	// Open flags and whence become fully covered, the invalid access mode
	// and the invalid whence included: every label of theirs is reachable.
	if got := an.InputReport("open", "flags").Covered(); got != 21 {
		t.Errorf("open flags after probes = %d/21", got)
	}
	if got := an.InputReport("lseek", "whence").Covered(); got != 6 {
		t.Errorf("whence after probes = %d/6", got)
	}
}

// TestTargetedProbesHitTheirPartition runs every probe the table builds,
// for every (space, label) it serves, alone on a fresh kernel: each must
// hit its own partition. The only labels the table may decline are the
// buffer-length floor: "<0" and every bucket above MaxDataLen.
func TestTargetedProbesHitTheirPartition(t *testing.T) {
	table := sysspec.NewTable()
	built := 0
	for _, pr := range Probes() {
		space := pr.Syscall + "." + pr.Arg
		if ProbeFor(pr.Syscall, pr.Arg) == nil {
			t.Errorf("%s: ProbeFor misses a table row", space)
		}
		var in partition.Input
		for _, a := range table.Spec(pr.Syscall).TrackedArgs() {
			if a.Name == pr.Arg {
				in = partition.ForScheme(a.Scheme)
			}
		}
		if in == nil {
			t.Fatalf("%s: not a partitioned input space", space)
		}
		declined := 0
		for ord, label := range in.Domain() {
			prog, ok := pr.Build(label, "/probe")
			if !ok {
				declined++
				if v, isNum := partition.NumericValue(label); !isNum || (v >= 0 && v <= MaxDataLen) {
					t.Errorf("%s: no probe for reachable partition %q", space, label)
				}
				continue
			}
			built++
			an, k := measuredAnalyzer(t, func(p *kernel.Proc) { _ = p.Mkdir("/probe", 0o777) })
			Execute(k.NewProc(kernel.ProcOptions{Cred: vfs.Root}), []Program{prog})
			if !slices.Contains(an.InputCoveredOrdinals(pr.Syscall, pr.Arg, nil), ord) {
				t.Errorf("%s probe for %q missed its partition\n%s", space, label, prog.Format())
			}
		}
		want := 0
		switch space {
		case "read.count", "write.count", "setxattr.size", "getxattr.size":
			want = 1 + partition.MaxLog2 - 26 // "<0" and 2^27 .. 2^MaxLog2
		}
		if declined != want {
			t.Errorf("%s: %d labels declined, want %d", space, declined, want)
		}
	}
	if built == 0 {
		t.Fatal("no probes built")
	}
}

func TestSuggestOnEmptyAnalyzer(t *testing.T) {
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	if progs, _ := Suggest(an, "", 0); len(progs) != 0 {
		t.Errorf("suggestions without any coverage: %d", len(progs))
	}
}
