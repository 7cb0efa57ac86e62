package xfstests

import (
	"fmt"
	"math/rand"
	"testing"

	"iocov/internal/kernel"
	"iocov/internal/raceflag"
	"iocov/internal/suites/workload"
	"iocov/internal/sys"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

func newRunner(t *testing.T, scale float64) (*runner, *trace.Collector) {
	t.Helper()
	col := trace.NewCollector()
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: col})
	cfg := Config{Scale: scale, Seed: 1}
	cfg.fill()
	r := &runner{
		cfg:  cfg,
		k:    k,
		root: k.NewProc(kernel.ProcOptions{Cred: vfs.Root}),
		user: k.NewProc(kernel.ProcOptions{Cred: vfs.Cred{UID: 1000, GID: 1000}}),
		rng:  newTestRng(),
		buf:  newTestBuf(),
		mnt:  cfg.MountPoint,
	}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	return r, col
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.Scale != 1.0 || c.MountPoint != "/mnt/test" ||
		c.GenericTests != 706 || c.FSTests != 308 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestSetupCreatesPools(t *testing.T) {
	r, _ := newRunner(t, 0.01)
	if len(r.poolFiles) != 64 || len(r.poolDirs) != 16 {
		t.Errorf("pools = %d files, %d dirs", len(r.poolFiles), len(r.poolDirs))
	}
	if _, e := r.root.Stat(r.poolFiles[0]); e != sys.OK {
		t.Errorf("pool file missing: %v", e)
	}
}

// TestEachTemplateRunsClean: every scenario template must complete without
// panicking and leave the filesystem consistent.
func TestEachTemplateRunsClean(t *testing.T) {
	r, _ := newRunner(t, 0.01)
	templates := []func(int){
		r.tmplCreateWriteRead, r.tmplErrorPathsOpen, r.tmplDirOps,
		r.tmplSeekFamily, r.tmplTruncateFamily, r.tmplXattrFamily,
		r.tmplPermissions, r.tmplSymlinks, r.tmplResourceLimits,
		r.tmplReadonlyMount, r.tmplBigFiles, r.tmplVectoredIO,
	}
	for i, tmpl := range templates {
		tmpl(1000 + i)
	}
	if corruptions := r.k.FS().CheckConsistency(); len(corruptions) != 0 {
		t.Errorf("templates corrupted the fs: %v", corruptions)
	}
	// The read-only template must restore writability.
	if r.k.FS().Config().ReadOnly {
		t.Error("filesystem left read-only")
	}
	if e := r.root.Mkdir(r.mnt+"/post", 0o755); e != sys.OK {
		t.Errorf("fs not writable after templates: %v", e)
	}
}

// TestErrorTemplateProducesExpectedErrnos: the deliberate error-path
// template triggers exactly the Figure 4 error set it is designed for.
func TestErrorTemplateProducesExpectedErrnos(t *testing.T) {
	r, col := newRunner(t, 0.01)
	r.tmplErrorPathsOpen(0)
	got := map[string]bool{}
	for _, ev := range col.Events() {
		if ev.Name == "open" && ev.Failed() {
			got[ev.Err.Name()] = true
		}
	}
	for _, want := range []string{"ENOENT", "EEXIST", "EISDIR", "ENOTDIR", "EINVAL", "ENAMETOOLONG"} {
		if !got[want] {
			t.Errorf("error template missed %s (got %v)", want, got)
		}
	}
}

// TestStormBoundedFootprint: the op storm must not leak files or blocks.
func TestStormBoundedFootprint(t *testing.T) {
	r, _ := newRunner(t, 0.005)
	before := r.k.FS().UsedBlocks()
	r.storm()
	after := r.k.FS().UsedBlocks()
	// The pool files remain, plus bounded leftovers; nothing like the
	// storm's total write volume may stay allocated.
	if after > before+64*1024 { // 256 MiB worth of blocks
		t.Errorf("storm leaked blocks: %d -> %d", before, after)
	}
	if fds := len(r.root.OpenFDs()); fds > 4 {
		t.Errorf("storm leaked %d descriptors", fds)
	}
}

func TestRunSmall(t *testing.T) {
	col := trace.NewCollector()
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: col})
	stats, err := Run(k, Config{Scale: 0.005, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tests < 12 {
		t.Errorf("tests = %d, want at least one pass over every template", stats.Tests)
	}
	if stats.Ops == 0 || col.Len() == 0 {
		t.Error("no ops recorded")
	}
	// Failures happen (error templates) but are a minority.
	if stats.Failures*2 > stats.Ops {
		t.Errorf("failures %d out of %d ops", stats.Failures, stats.Ops)
	}
}

func newTestRng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func newTestBuf() *workload.SharedBuf { return workload.NewSharedBuf(MaxWriteSize) }

// TestItemRNGAllocs: every work item after the first reseeds the runner's
// one item RNG, so running an item allocates no rngSource (4.9 KB each),
// and each item still draws the stream of a fresh source with its seed.
func TestItemRNGAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	r := &runner{cfg: Config{Seed: 1, Shards: 1}}
	var draw int64
	item := func() { draw = r.rng.Int63() }
	r.item(item) // the first item allocates the item RNG
	rng := r.rng
	if allocs := testing.AllocsPerRun(100, func() { r.item(item) }); allocs != 0 {
		t.Fatalf("an item after the first allocated %v times, want 0", allocs)
	}
	if r.rng != rng {
		t.Fatal("a later item replaced the item RNG")
	}
	if want := rand.New(rand.NewSource(workload.ItemSeed(1, uint64(r.nextItem-1)))).Int63(); draw != want {
		t.Fatalf("item %d drew %d, a fresh source with its seed draws %d", r.nextItem-1, draw, want)
	}
}

// TestZeroPadMatchesSprintf: the mkdir storm's names are byte-identical to
// the %02d/%03d forms they replace.
func TestZeroPadMatchesSprintf(t *testing.T) {
	for _, width := range []int{2, 3} {
		for v := 0; v < 1200; v++ {
			if got, want := zeroPad(v, width), fmt.Sprintf("%0*d", width, v); got != want {
				t.Fatalf("zeroPad(%d, %d) = %q, want %q", v, width, got, want)
			}
		}
	}
}
