package crashmonkey

import (
	"math/rand"
	"testing"

	"iocov/internal/kernel"
	"iocov/internal/raceflag"
	"iocov/internal/suites/workload"
	"iocov/internal/sys"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.Scale != 1.0 || c.MountPoint != "/mnt/test" || c.Seq1Workloads != 300 || c.GenericTests != 80 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestRunSmall(t *testing.T) {
	col := trace.NewCollector()
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: col})
	stats, err := Run(k, Config{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workloads == 0 || stats.Ops == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if col.Len() == 0 {
		t.Fatal("no events")
	}
	if k.FS().Config().ReadOnly {
		t.Error("fs left read-only")
	}
}

// TestSeq1EveryOpRuns: each of the 14 seq-1 operations executes and leaves
// a consistent filesystem.
func TestSeq1EveryOpRuns(t *testing.T) {
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{})
	cfg := Config{Scale: 1, Seed: 1}
	cfg.fill()
	r := &runner{cfg: cfg, k: k, p: k.NewProc(kernel.ProcOptions{Cred: vfs.Root}),
		rng: rand.New(rand.NewSource(1)), buf: workload.NewSharedBuf(128 << 10),
		mnt: cfg.MountPoint}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(seq1Ops); i++ {
		r.seq1Workload(i)
	}
	if corruptions := k.FS().CheckConsistency(); len(corruptions) != 0 {
		t.Errorf("seq-1 corrupted the fs: %v", corruptions)
	}
	// The falloc op really allocated.
	st, e := r.p.Stat(cfg.MountPoint + "/cm003/A")
	if e != sys.OK {
		t.Fatalf("falloc workload file missing: %v", e)
	}
	if st.Size != 16384 || st.Blocks != 4 {
		t.Errorf("falloc result = size %d blocks %d", st.Size, st.Blocks)
	}
}

// TestFsyncHeavyProfile: CrashMonkey is a crash-consistency tester, so its
// trace must be dense in persistence operations.
func TestFsyncHeavyProfile(t *testing.T) {
	col := trace.NewCollector()
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: col})
	if _, err := Run(k, Config{Scale: 0.2, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	var syncs, total int
	for _, ev := range col.Events() {
		total++
		switch ev.Name {
		case "fsync", "fdatasync", "sync":
			syncs++
		}
	}
	if syncs == 0 {
		t.Fatal("no persistence ops in a crash-consistency workload")
	}
	if 100*syncs/total < 2 {
		t.Errorf("persistence ops only %d of %d events", syncs, total)
	}
}

// TestCrashCheckCleanOnCorrectFS: the crash oracle reports nothing on a
// correct filesystem.
func TestCrashCheckCleanOnCorrectFS(t *testing.T) {
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{})
	stats, err := Run(k, Config{Scale: 0.1, Seed: 3, CrashCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CrashViolations != 0 {
		t.Errorf("crash violations on correct fs: %d", stats.CrashViolations)
	}
}

// TestCrashCheckCatchesFsyncIgnored: with the fsync-swallowing bug
// injected, the crash oracle reports violations — while the plain run
// statistics stay indistinguishable from a correct filesystem.
func TestCrashCheckCatchesFsyncIgnored(t *testing.T) {
	cfg := vfs.DefaultConfig()
	cfg.Bugs.FsyncIgnored = true
	k := kernel.New(vfs.New(cfg), kernel.Options{})
	stats, err := Run(k, Config{Scale: 0.1, Seed: 3, CrashCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CrashViolations == 0 {
		t.Fatal("crash oracle missed the fsync-ignored bug")
	}
	// Plain failure counts unchanged: invisible without the oracle.
	k2 := kernel.New(vfs.New(cfg), kernel.Options{})
	plain, err := Run(k2, Config{Scale: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	k3 := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{})
	clean, err := Run(k3, Config{Scale: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Failures != clean.Failures {
		t.Errorf("plain runs differ (%d vs %d); bug should be invisible without crash sim",
			plain.Failures, clean.Failures)
	}
}

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
