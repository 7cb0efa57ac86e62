package difftest

import (
	"fmt"
	"strings"
	"testing"

	"iocov/internal/coverage"
	"iocov/internal/kernel"
	"iocov/internal/sys"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

// TestCleanFSNoMismatches: on a correct filesystem the kernel and the model
// must agree on every generated op — any disagreement is a bug in one of
// the two independent implementations. The second input is difffs's
// defaults: long enough to reach the kernel's descriptor limit.
func TestCleanFSNoMismatches(t *testing.T) {
	for _, cfg := range []Config{
		{Ops: 8000, Seed: 42, GuideEvery: 50},
		{Ops: 20000, Seed: 1, GuideEvery: 25},
	} {
		run := fmt.Sprintf("ops=%d seed=%d guide=%d", cfg.Ops, cfg.Seed, cfg.GuideEvery)
		res := Run(cfg)
		if len(res.Mismatches) != 0 {
			for i, m := range res.Mismatches {
				if i > 10 {
					break
				}
				t.Errorf("%s: mismatch: %s", run, m)
			}
			t.Fatalf("%s: %d mismatches on a correct filesystem", run, len(res.Mismatches))
		}
		if res.Ops != cfg.Ops || res.Guided == 0 {
			t.Errorf("%s: ops=%d guided=%d", run, res.Ops, res.Guided)
		}
	}
}

// TestCleanFSManySeeds: robustness across seeds.
func TestCleanFSManySeeds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		res := Run(Config{Ops: 1500, Seed: seed, GuideEvery: 40})
		if len(res.Mismatches) != 0 {
			t.Fatalf("seed %d: %d mismatches, first: %s", seed, len(res.Mismatches), res.Mismatches[0])
		}
	}
}

func findsBug(t *testing.T, bugs vfs.BugSet, guided bool, wantSubstr string) bool {
	t.Helper()
	guide := 0
	if guided {
		guide = 25
	}
	for seed := int64(0); seed < 6; seed++ {
		cfg := Config{Ops: 6000, Seed: seed, GuideEvery: guide}
		cfg.FS = vfs.DefaultConfig()
		cfg.FS.Bugs = bugs
		res := Run(cfg)
		for _, m := range res.Mismatches {
			if strings.Contains(m.Op, wantSubstr) {
				return true
			}
		}
	}
	return false
}

// TestFindsNowaitBug: the injected NOWAIT ENOSPC bug surfaces as a write
// mismatch once the generator produces O_NONBLOCK descriptors.
func TestFindsNowaitBug(t *testing.T) {
	if !findsBug(t, vfs.BugSet{NowaitWriteENOSPC: true}, true, "write") {
		t.Error("differential tester missed the NOWAIT write bug")
	}
}

// TestFindsTruncateExpandBug: block-aligned expansion shows up either as a
// truncate outcome divergence or a state-check size divergence.
func TestFindsTruncateExpandBug(t *testing.T) {
	found := findsBug(t, vfs.BugSet{TruncateExpandError: true}, true, "truncate") ||
		findsBug(t, vfs.BugSet{TruncateExpandError: true}, true, "stat") ||
		findsBug(t, vfs.BugSet{TruncateExpandError: true}, true, "lseek")
	if !found {
		t.Error("differential tester missed the truncate-expand bug")
	}
}

// TestFindsXattrOverflowWithGuidance: Figure 1's bug needs the max-size
// boundary probe, which only coverage guidance generates.
func TestFindsXattrOverflowWithGuidance(t *testing.T) {
	if !findsBug(t, vfs.BugSet{XattrSizeOverflow: true}, true, "setxattr") {
		t.Error("guided differential tester missed the xattr overflow bug")
	}
}

// TestFindsLargefileBug: sparse truncates beyond 2 GiB plus opens without
// O_LARGEFILE expose the missing EOVERFLOW check.
func TestFindsLargefileBug(t *testing.T) {
	bugs := vfs.BugSet{LargefileOpen: true}
	found := false
	for seed := int64(0); seed < 10 && !found; seed++ {
		cfg := Config{Ops: 8000, Seed: seed, GuideEvery: 25}
		cfg.FS = vfs.DefaultConfig()
		cfg.FS.Bugs = bugs
		res := Run(cfg)
		for _, m := range res.Mismatches {
			if strings.Contains(m.Op, "open") {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("differential tester missed the largefile-open bug")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Run(Config{Ops: 2000, Seed: 5, GuideEvery: 30})
	b := Run(Config{Ops: 2000, Seed: 5, GuideEvery: 30})
	if len(a.Mismatches) != len(b.Mismatches) {
		t.Errorf("nondeterministic mismatch counts: %d vs %d", len(a.Mismatches), len(b.Mismatches))
	}
	fa := a.Analyzer.InputReport("open", "flags").Frequencies()
	fb := b.Analyzer.InputReport("open", "flags").Frequencies()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("nondeterministic coverage at %d", i)
		}
	}
}

// TestGuidanceImprovesInputCoverage: with guidance the run covers more open
// flag partitions than without, on the same budget.
func TestGuidanceImprovesInputCoverage(t *testing.T) {
	plain := Run(Config{Ops: 4000, Seed: 9})
	guided := Run(Config{Ops: 4000, Seed: 9, GuideEvery: 20})
	pc := plain.Analyzer.InputReport("open", "flags").Covered()
	gc := guided.Analyzer.InputReport("open", "flags").Covered()
	if gc < pc {
		t.Errorf("guided covered %d flags, plain %d; guidance should not reduce coverage", gc, pc)
	}
	// Guided write sizes should reach buckets plain misses.
	pw := plain.Analyzer.InputReport("write", "count").Covered()
	gw := guided.Analyzer.InputReport("write", "count").Covered()
	if gw <= pw {
		t.Errorf("guided write buckets %d <= plain %d", gw, pw)
	}
}

// TestBoundaryFromLabel pins how guidance turns an untested write-size
// label back into a probe: the first untested bucket's lower boundary,
// never "<0", and nothing above the cap.
func TestBoundaryFromLabel(t *testing.T) {
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	write := func(count int64) {
		ev := trace.Event{Name: "write", PID: 1}
		ev.AddArg("fd", 3)
		ev.AddArg("count", count)
		an.Add(ev)
	}
	boundary := func() (int64, bool) { return guidedValue(an, "write", "count", 1<<24) }
	if _, ok := boundary(); ok {
		t.Fatal("boundary found before any write was seen")
	}
	write(1) // "<0" stays untested: it leads the domain but is never a probe
	if got, ok := boundary(); !ok || got != 0 {
		t.Errorf("after 2^0: boundary = %d,%v, want 0 (\"=0\")", got, ok)
	}
	write(0)
	for k := 1; k < 12; k++ {
		write(1 << k)
	}
	if got, ok := boundary(); !ok || got != 4096 {
		t.Errorf("after 2^0..2^11: boundary = %d,%v, want 4096 (\"2^12\")", got, ok)
	}
	for k := 12; k < 24; k++ {
		write(1 << k)
	}
	if got, ok := boundary(); !ok || got != 1<<24 {
		t.Errorf("after 2^0..2^23: boundary = %d,%v, want 2^24 (the cap)", got, ok)
	}
	write(1 << 24)
	if got, ok := boundary(); ok {
		t.Errorf("every bucket up to the cap covered: boundary = %d, want none (2^25 is above the cap)", got)
	}
}

// TestModelDirectly exercises the reference model's own corner cases.
// TestModelPredictsFDLimits runs the same opens against the kernel and the
// model at both descriptor limits: EMFILE, then ENFILE, come before path
// errors, and neither lets the open create or truncate its file.
func TestModelPredictsFDLimits(t *testing.T) {
	for _, lim := range []struct{ maxFDs, maxFiles int }{{1, 2}, {2, 1}} {
		fs := vfs.New(vfs.DefaultConfig())
		k := kernel.New(fs, kernel.Options{MaxSystemFiles: lim.maxFiles})
		p := k.NewProc(kernel.ProcOptions{MaxFDs: lim.maxFDs})
		m := NewModel(1<<40, 1<<16, 1<<16)
		m.maxFDs, m.maxFiles = p.MaxFDs(), k.MaxSystemFiles()
		for i, op := range []struct {
			path  string
			flags int
		}{
			{"/a", sys.O_CREAT | sys.O_WRONLY},
			{"/b", sys.O_CREAT | sys.O_WRONLY},
			{"/a", sys.O_TRUNC | sys.O_WRONLY},
			{"/missing", sys.O_RDONLY},
		} {
			fd, ke := p.Open(op.path, op.flags, 0o644)
			if me := m.Open(fd, op.path, op.flags, 0o644); ke != me {
				t.Errorf("limits %+v op %d open(%s): kernel %v, model %v", lim, i, op.path, ke, me)
			}
			if i == 0 {
				if _, e := p.Write(fd, make([]byte, 4)); e != sys.OK {
					t.Fatal(e)
				}
				m.Write(fd, 4)
			}
		}
		want := sys.EMFILE
		if lim.maxFiles < lim.maxFDs {
			want = sys.ENFILE
		}
		if _, e := p.Open("/c", sys.O_CREAT|sys.O_WRONLY, 0o644); e != want {
			t.Errorf("limits %+v: open = %v, want %v", lim, e, want)
		}
		if _, ok := m.FileSize("/b"); ok {
			t.Errorf("limits %+v: model created /b on a refused open", lim)
		}
		if size, _ := m.FileSize("/a"); size != 4 {
			t.Errorf("limits %+v: model /a size %d after a refused O_TRUNC, want 4", lim, size)
		}
	}
}

func TestModelDirectly(t *testing.T) {
	m := NewModel(1<<40, 1<<16, 1<<16)
	if e := m.Mkdir("/d", 0o755); e != sys.OK {
		t.Fatal(e)
	}
	if e := m.Mkdir("/d", 0o755); e != sys.EEXIST {
		t.Errorf("mkdir twice = %v", e)
	}
	if e := m.Open(3, "/f", sys.O_CREAT|sys.O_RDWR, 0o644); e != sys.OK {
		t.Fatal(e)
	}
	if n, e := m.Write(3, 100); e != sys.OK || n != 100 {
		t.Errorf("write = %d,%v", n, e)
	}
	if pos, e := m.Lseek(3, 0, sys.SEEK_END); e != sys.OK || pos != 100 {
		t.Errorf("seek end = %d,%v", pos, e)
	}
	if e := m.Open(4, "/d", sys.O_WRONLY, 0); e != sys.EISDIR {
		t.Errorf("write-open dir = %v", e)
	}
	if e := m.Open(4, "/nope", sys.O_RDONLY, 0); e != sys.ENOENT {
		t.Errorf("open missing = %v", e)
	}
	if e := m.Close(3); e != sys.OK {
		t.Fatal(e)
	}
	if e := m.Close(3); e != sys.EBADF {
		t.Errorf("double close = %v", e)
	}
	// Large-file rule.
	if e := m.Truncate("/f", 1<<32); e != sys.OK {
		t.Fatal(e)
	}
	if e := m.Open(5, "/f", sys.O_RDONLY, 0); e != sys.EOVERFLOW {
		t.Errorf("2GiB open without O_LARGEFILE = %v", e)
	}
	if e := m.Open(5, "/f", sys.O_RDONLY|sys.O_LARGEFILE, 0); e != sys.OK {
		t.Errorf("with O_LARGEFILE = %v", e)
	}
	// Xattr capacity: a 60000-byte value fits (60000 + name + overhead <
	// 65536); a second one does not.
	if e := m.Setxattr("/f", "user.a", 60000, 0); e != sys.OK {
		t.Errorf("first xattr = %v", e)
	}
	if e := m.Setxattr("/f", "user.b", 60000, 0); e != sys.ENOSPC {
		t.Errorf("over-capacity xattr = %v", e)
	}
	if e := m.Setxattr("/f", "user.big", 1<<17, 0); e != sys.E2BIG {
		t.Errorf("oversized xattr = %v", e)
	}
	if n, e := m.Getxattr("/f", "user.a", 0); e != sys.OK || n != 60000 {
		t.Errorf("getxattr size query = %d,%v", n, e)
	}
	if _, e := m.Getxattr("/f", "user.a", 5); e != sys.ERANGE {
		t.Errorf("short buffer = %v", e)
	}
}
