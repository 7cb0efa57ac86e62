// Package crashmonkey simulates the CrashMonkey black-box crash-consistency
// tester of the paper's evaluation: the seq-1 set of 300 bounded workloads
// plus its generic tests, run against /mnt/test.
//
// CrashMonkey generates short rule-based workloads — create a few files,
// mutate them with one operation drawn from a small op set, persist with
// fsync/sync, then check the crash images. What IOCov observes is therefore
// a much narrower input/output distribution than xfstests':
//
//   - an order of magnitude fewer syscalls overall (O_RDONLY ≈ 7.9k vs
//     xfstests' 4.1M at full scale, Figure 2),
//   - 3- and 4-flag open combinations dominating, with persistence flags
//     (O_SYNC, O_DIRECT) heavily represented and at most 5 flags together
//     (Table 1's CrashMonkey row: 9.3 / 2.8 / 22.1 / 65.4 / 0.5 / 0),
//   - small write sizes only (nothing above 128 KiB, Figure 3),
//   - a narrow open output set — but more ENOTDIR than xfstests, because
//     every workload probes paths through regular files (Figure 4's one
//     exception).
//
// Workloads are deterministic given Config.Seed.
package crashmonkey

import (
	"fmt"
	"math/rand"
	"strings"

	"iocov/internal/crashsim"
	"iocov/internal/kernel"
	"iocov/internal/suites/workload"
	"iocov/internal/sys"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

// Config parameterizes a run.
type Config struct {
	// Scale multiplies op counts (1.0 = the full 300-workload seq-1 run
	// plus generic tests; CrashMonkey's full run is small). Zero means 1.0.
	Scale float64
	// Seed drives all pseudo-random choices.
	Seed int64
	// MountPoint defaults to "/mnt/test".
	MountPoint string
	// Seq1Workloads is the bounded-workload count (default 300, the seq-1
	// population the paper ran).
	Seq1Workloads int
	// GenericTests is the generic-test count (default 80).
	GenericTests int
	// Noise emits out-of-mount bookkeeping syscalls for the trace filter
	// to discard.
	Noise bool
	// CrashCheck enables the crash-consistency oracle: after each seq-1
	// workload establishes its fsynced canonical state, a crash is
	// simulated and durability expectations are checked — CrashMonkey's
	// actual testing purpose.
	CrashCheck bool
	// Shard and Shards select a deterministic slice of the run's work
	// items (one seq-1 workload, one generic test, one storm chunk) for
	// parallel execution; item g runs iff g % Shards == Shard. Zero
	// Shards means 1 (run everything).
	Shard  int
	Shards int
}

// Stats summarizes a run.
type Stats struct {
	Workloads int
	Ops       int64
	Failures  int64
	// CrashViolations counts durability expectations that failed under
	// the crash oracle (always 0 on a correct filesystem).
	CrashViolations int
}

func (c *Config) fill() {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.MountPoint == "" {
		c.MountPoint = "/mnt/test"
	}
	if c.Seq1Workloads <= 0 {
		c.Seq1Workloads = 300
	}
	if c.GenericTests <= 0 {
		c.GenericTests = 80
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
}

// openCombos is the op storm's share of Table 1's CrashMonkey calibration.
// The seq-1 workloads and generic tests contribute a fixed open population
// at full scale (≈641 one-flag, ≈122 two-flag, ≈600 four-flag opens); these
// storm weights are the full-run targets — row {9.3, 2.8, 22.1, 65.4, 0.5,
// 0} over ≈12.2k total opens with an O_RDONLY share of 0.65, reproducing
// the O_RDONLY row {9.3, 2.8, 21.9, 65.6, 0.5, 0} — minus those fixed
// contributions. Weights are full-scale counts.
var openCombos = workload.NewWeightedFlags([]workload.FlagWeight{
	// 1 flag: storm share 493 (rd 117)
	{Flags: sys.O_RDONLY, Weight: 117},
	{Flags: sys.O_WRONLY, Weight: 250},
	{Flags: sys.O_RDWR, Weight: 126},
	// 2 flags: storm share 219 (rd 201)
	{Flags: sys.O_RDONLY | sys.O_DIRECTORY, Weight: 201},
	{Flags: sys.O_WRONLY | sys.O_CREAT, Weight: 18},
	// 3 flags: storm share 2694 (rd 1735)
	{Flags: sys.O_RDONLY | sys.O_CREAT | sys.O_TRUNC, Weight: 1735},
	{Flags: sys.O_RDWR | sys.O_CREAT | sys.O_TRUNC, Weight: 600},
	{Flags: sys.O_WRONLY | sys.O_CREAT | sys.O_APPEND, Weight: 359},
	// 4 flags: storm share 7372 (rd 5198)
	{Flags: sys.O_RDONLY | sys.O_CREAT | sys.O_TRUNC | sys.O_SYNC, Weight: 5198},
	{Flags: sys.O_RDWR | sys.O_CREAT | sys.O_TRUNC | sys.O_DIRECT, Weight: 1200},
	{Flags: sys.O_WRONLY | sys.O_CREAT | sys.O_TRUNC | sys.O_SYNC, Weight: 974},
	// 5 flags: storm share 61 (rd 40)
	{Flags: sys.O_RDONLY | sys.O_CREAT | sys.O_TRUNC | sys.O_SYNC | sys.O_DIRECT, Weight: 40},
	{Flags: sys.O_RDWR | sys.O_CREAT | sys.O_TRUNC | sys.O_SYNC | sys.O_DIRECT, Weight: 21},
})

// writeSizes covers only the small buckets, per Figure 3's CrashMonkey
// series: nothing at "equal to 0" and nothing above 128 KiB.
var writeSizes = workload.NewSizeDist([]workload.BucketWeight{
	{Bucket: 0, Weight: 180}, {Bucket: 3, Weight: 260},
	{Bucket: 8, Weight: 420}, {Bucket: 10, Weight: 640},
	{Bucket: 12, Weight: 900}, {Bucket: 14, Weight: 300},
	{Bucket: 16, Weight: 90},
}, 128<<10)

// Full-scale magnitudes. The storm issues fullOpens opens; together with
// the seq-1/generic fixed opens the run totals ≈12.2k opens of which ≈7.9k
// carry the O_RDONLY access mode (the paper's 7,924).
const (
	fullOpens  = 10_839
	fullWrites = 3_400
	fullReads  = 2_600
	fullLseeks = 700
)

type runner struct {
	cfg   Config
	k     *kernel.Kernel
	p     *kernel.Proc
	rng   *rand.Rand
	buf   *workload.SharedBuf
	stats Stats
	mnt   string
	sim   *crashsim.Sim

	// itemRNG is the one RNG every work item runs under (see the xfstests
	// runner): item reseeds it rather than allocating a source per item.
	itemRNG *rand.Rand

	// nextItem is the running work-item counter used for shard
	// assignment; it advances identically on every shard.
	nextItem int
}

// item runs fn as one deterministic work item (see the xfstests runner for
// the shard-invariance contract: fixed enumeration order, round-robin shard
// assignment, item-local RNG).
func (r *runner) item(fn func()) {
	g := r.nextItem
	r.nextItem++
	if g%r.cfg.Shards != r.cfg.Shard {
		return
	}
	if r.itemRNG == nil {
		r.itemRNG = rand.New(rand.NewSource(0))
	}
	r.itemRNG.Seed(workload.ItemSeed(r.cfg.Seed, uint64(g)))
	r.rng = r.itemRNG
	fn()
}

// Run executes the simulated CrashMonkey against k.
func Run(k *kernel.Kernel, cfg Config) (Stats, error) {
	cfg.fill()
	r := &runner{
		cfg: cfg,
		k:   k,
		p:   k.NewProc(kernel.ProcOptions{Cred: vfs.Root}),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		buf: workload.NewSharedBuf(128 << 10),
		mnt: cfg.MountPoint,
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return Stats{}, fmt.Errorf("crashmonkey: shard %d out of range [0,%d)", cfg.Shard, cfg.Shards)
	}
	if cfg.CrashCheck {
		r.sim = crashsim.New(k.FS())
		// Chain the simulator's barrier watcher after the caller's sink.
		if prev := k.Sink(); prev != nil {
			k.SetSink(trace.MultiSink{prev, r.sim.Sink()})
		} else {
			k.SetSink(r.sim.Sink())
		}
	}
	// Setup runs untraced: every shard rebuilds the mount point on its own
	// filesystem, and those events must not reach the analyzer once per
	// shard when a serial run emits them once.
	sink := k.Sink()
	k.SetSink(nil)
	err := r.setup()
	k.SetSink(sink)
	if err != nil {
		return r.stats, err
	}
	if cfg.Noise {
		r.emitNoise()
	}
	r.runSeq1()
	r.runGeneric()
	r.storm()
	r.p.CloseAll()
	return r.stats, nil
}

func (r *runner) check(e sys.Errno) {
	r.stats.Ops++
	if e != sys.OK {
		r.stats.Failures++
	}
}

func (r *runner) setup() error {
	parts := strings.Split(strings.Trim(r.mnt, "/"), "/")
	path := ""
	for _, c := range parts {
		path += "/" + c
		if e := r.p.Mkdir(path, 0o755); e != sys.OK && e != sys.EEXIST {
			return fmt.Errorf("crashmonkey: mkdir %s: %v", path, e)
		}
	}
	return nil
}

// emitNoise issues the out-of-mount bookkeeping syscalls a real harness
// produces; IOCov's trace filter must drop them.
func (r *runner) emitNoise() {
	for i := 0; i < 40; i++ {
		_ = r.p.Mkdir("/tmp", 0o777)
		fd, e := r.p.Open("/tmp/cm-snapshot", sys.O_CREAT|sys.O_WRONLY|sys.O_TRUNC, 0o600)
		if e == sys.OK {
			_, _ = r.p.Write(fd, r.buf.Get(256))
			_ = r.p.Close(fd)
		}
	}
}

// runSeq1 executes the seq-1 bounded workloads: each prepares a canonical
// two-file, one-directory state, applies ONE operation from the op set, and
// persists — CrashMonkey's signature pattern.
func (r *runner) runSeq1() {
	n := r.cfg.Seq1Workloads
	if r.cfg.Scale < 1 {
		n = workload.ScaleCount(n, r.cfg.Scale)
		if n < 16 {
			n = 16
		}
	}
	for i := 0; i < n; i++ {
		r.item(func() {
			r.seq1Workload(i)
			r.stats.Workloads++
		})
	}
}

// seq1Ops is CrashMonkey's single-op vocabulary.
var seq1Ops = []string{
	"write", "pwrite", "truncate", "falloc", "mkdir", "rmdir",
	"link", "unlink", "rename", "symlink", "fsync-only", "sync-only",
	"setxattr", "chmod",
}

func (r *runner) seq1Workload(i int) {
	p := r.p
	d := fmt.Sprintf("%s/cm%03d", r.mnt, i)
	r.check(p.Mkdir(d, 0o755))
	fileA, fileB := d+"/A", d+"/B"
	// Canonical state: A and B exist with a page of data, persisted.
	for _, f := range []string{fileA, fileB} {
		fd, e := p.Open(f, sys.O_WRONLY|sys.O_CREAT|sys.O_TRUNC|sys.O_SYNC, 0o644)
		r.check(e)
		if e != sys.OK {
			continue
		}
		_, we := p.Write(fd, r.buf.Get(4096))
		r.check(we)
		r.check(p.Fsync(fd))
		r.check(p.Close(fd))
	}
	// Crash oracle: both files were just written and fsynced, so they
	// must survive a crash right now. An fsync-swallowing filesystem
	// fails here — the bug class this tester exists for.
	if r.sim != nil {
		violations := crashsim.Check(r.sim.Crash(), []crashsim.Expectation{
			{Path: fileA, MinSize: 4096},
			{Path: fileB, MinSize: 4096},
		})
		r.stats.CrashViolations += len(violations)
	}
	// The one mutating operation.
	switch op := seq1Ops[i%len(seq1Ops)]; op {
	case "write":
		fd, e := p.Open(fileA, sys.O_WRONLY|sys.O_APPEND, 0)
		r.check(e)
		if e == sys.OK {
			_, we := p.Write(fd, r.buf.Get(1024))
			r.check(we)
			r.check(p.Fsync(fd))
			r.check(p.Close(fd))
		}
	case "pwrite":
		fd, e := p.Open(fileA, sys.O_RDWR, 0)
		r.check(e)
		if e == sys.OK {
			_, we := p.Pwrite64(fd, r.buf.Get(512), 2048)
			r.check(we)
			r.check(p.Fdatasync(fd))
			r.check(p.Close(fd))
		}
	case "truncate":
		r.check(p.Truncate(fileA, int64(1024*(i%5))))
	case "falloc":
		fd, e := p.Open(fileA, sys.O_RDWR, 0)
		r.check(e)
		if e == sys.OK {
			r.check(p.Fallocate(fd, 0, 0, 16384))
			r.check(p.Fsync(fd))
			r.check(p.Close(fd))
		}
	case "mkdir":
		r.check(p.Mkdir(d+"/sub", 0o755))
	case "rmdir":
		r.check(p.Mkdir(d+"/gone", 0o755))
		r.check(p.Rmdir(d + "/gone"))
	case "link":
		r.check(p.Link(fileA, d+"/Alink"))
	case "unlink":
		r.check(p.Unlink(fileB))
	case "rename":
		r.check(p.Rename(fileA, d+"/A2"))
	case "symlink":
		r.check(p.Symlink(fileA, d+"/Asym"))
	case "fsync-only":
		fd, e := p.Open(d, sys.O_RDONLY|sys.O_DIRECTORY, 0)
		r.check(e)
		if e == sys.OK {
			r.check(p.Fsync(fd))
			r.check(p.Close(fd))
		}
	case "sync-only":
		p.Sync()
		r.stats.Ops++
	case "setxattr":
		r.check(p.Setxattr(fileA, "user.cm", r.buf.Get(64), 0))
	case "chmod":
		r.check(p.Chmod(fileA, 0o600))
	}
	p.Sync()
	r.stats.Ops++
	// Consistency check phase: one plain read-only re-open per workload
	// (most checker opens use the combined-flag patterns counted in the
	// storm calibration).
	fd, e := p.Open(fileB, sys.O_RDONLY, 0)
	r.check(e) // ENOENT after the unlink op is expected
	if e == sys.OK {
		_, re := p.Read(fd, make([]byte, 4096))
		r.check(re)
		r.check(p.Close(fd))
	}
	// Metadata probe through a regular file (not an open).
	_, e = p.Stat(fileA + "/meta")
	r.check(e)
}

// runGeneric executes the generic rule-based tests: directory trees, more
// ENOTDIR probes, and EEXIST paths.
func (r *runner) runGeneric() {
	p := r.p
	n := r.cfg.GenericTests
	if r.cfg.Scale < 1 {
		n = workload.ScaleCount(n, r.cfg.Scale)
		if n < 8 {
			n = 8
		}
	}
	for i := 0; i < n; i++ {
		r.item(func() {
			d := fmt.Sprintf("%s/gen%03d", r.mnt, i)
			r.check(p.Mkdir(d, 0o755))
			r.check(p.Mkdir(d, 0o755)) // EEXIST
			fd, e := p.Open(d+"/f", sys.O_WRONLY|sys.O_CREAT, 0o644)
			r.check(e)
			if e == sys.OK {
				_, we := p.Write(fd, r.buf.Get(int64(512*(i%8+1))))
				r.check(we)
				r.check(p.Fsync(fd))
				r.check(p.Close(fd))
			}
			// Three ENOTDIR probes per test, giving CrashMonkey its
			// Figure 4 edge over xfstests on this one errno.
			for j := 0; j < 3; j++ {
				_, e := p.Open(fmt.Sprintf("%s/f/x%d", d, j), sys.O_RDONLY, 0)
				r.check(e)
			}
			_, e = p.Open(d+"/missing", sys.O_RDONLY, 0) // ENOENT
			r.check(e)
			r.stats.Workloads++
		})
	}
}

// Chunk counts for the storm phases: constants independent of the shard
// count, so the generated workload never changes with the worker pool
// size. Each chunk is a self-contained work item with chunk-scoped scratch
// files and its own item RNG.
const (
	chunksOpens  = 8
	chunksWrites = 4
	chunksReads  = 4
	chunksLseeks = 2
)

// storm tops the run up to the calibrated full-scale magnitudes with
// checker-style opens, reads, writes and seeks drawn from the CrashMonkey
// distributions.
func (r *runner) storm() {
	r.stormPhase(chunksOpens, workload.ScaleCount(fullOpens, r.cfg.Scale), r.stormOpens)
	r.stormPhase(chunksWrites, workload.ScaleCount(fullWrites, r.cfg.Scale), r.stormWrites)
	r.stormPhase(chunksReads, workload.ScaleCount(fullReads, r.cfg.Scale), r.stormReads)
	r.stormPhase(chunksLseeks, workload.ScaleCount(fullLseeks, r.cfg.Scale), r.stormLseeks)
}

// stormPhase dispatches one phase's op budget as chunk work items; empty
// chunks are skipped deterministically (emptiness depends only on the op
// budget, never on the shard count).
func (r *runner) stormPhase(chunks, n int, fn func(c, lo, hi int)) {
	for c := 0; c < chunks; c++ {
		lo, hi := workload.ChunkRange(n, chunks, c)
		if lo >= hi {
			continue
		}
		r.item(func() { fn(c, lo, hi) })
	}
}

func (r *runner) stormOpens(c, lo, hi int) {
	p := r.p
	d := fmt.Sprintf("%s/cm-storm-o%02d", r.mnt, c)
	r.check(p.Mkdir(d, 0o755))
	var files []string
	for i := 0; i < 8; i++ {
		f := fmt.Sprintf("%s/f%d", d, i)
		fd, e := p.Open(f, sys.O_WRONLY|sys.O_CREAT|sys.O_TRUNC, 0o644)
		r.check(e)
		if e == sys.OK {
			_, we := p.Write(fd, r.buf.Get(8192))
			r.check(we)
			r.check(p.Close(fd))
		}
		files = append(files, f)
	}
	dirs := []string{d}
	for i := lo; i < hi; i++ {
		flags := openCombos.Pick(r.rng)
		path := files[r.rng.Intn(len(files))]
		if flags&sys.O_DIRECTORY != 0 {
			path = dirs[r.rng.Intn(len(dirs))]
		}
		fd, e := p.Open(path, flags, 0o644)
		r.check(e)
		if e == sys.OK {
			if flags&sys.O_SYNC != 0 && r.rng.Intn(4) == 0 {
				r.check(p.Fsync(fd))
			}
			r.check(p.Close(fd))
		}
	}
}

func (r *runner) stormWrites(c, lo, hi int) {
	p := r.p
	wfd, e := p.Open(fmt.Sprintf("%s/cm-storm-w%02d", r.mnt, c), sys.O_WRONLY|sys.O_CREAT|sys.O_TRUNC, 0o644)
	r.check(e)
	if e != sys.OK {
		return
	}
	var pos int64
	for i := lo; i < hi; i++ {
		size := writeSizes.Pick(r.rng)
		_, we := p.Write(wfd, r.buf.Get(size))
		r.check(we)
		pos += size
		if pos > 1<<20 {
			_, se := p.Lseek(wfd, 0, sys.SEEK_SET)
			r.check(se)
			pos = 0
		}
	}
	r.check(p.Close(wfd))
}

func (r *runner) stormReads(c, lo, hi int) {
	p := r.p
	f := fmt.Sprintf("%s/cm-storm-r%02d", r.mnt, c)
	wfd, e := p.Open(f, sys.O_WRONLY|sys.O_CREAT|sys.O_TRUNC, 0o644)
	r.check(e)
	if e != sys.OK {
		return
	}
	_, we := p.Write(wfd, r.buf.Get(8192))
	r.check(we)
	r.check(p.Close(wfd))
	rfd, e := p.Open(f, sys.O_RDONLY, 0)
	r.check(e)
	if e != sys.OK {
		return
	}
	rbuf := make([]byte, 8192)
	for i := lo; i < hi; i++ {
		size := int64(1) << uint(r.rng.Intn(13))
		_, re := p.Read(rfd, rbuf[:size])
		r.check(re)
		if i%8 == 7 {
			_, se := p.Lseek(rfd, 0, sys.SEEK_SET)
			r.check(se)
		}
	}
	r.check(p.Close(rfd))
}

func (r *runner) stormLseeks(c, lo, hi int) {
	p := r.p
	f := fmt.Sprintf("%s/cm-storm-s%02d", r.mnt, c)
	wfd, e := p.Open(f, sys.O_WRONLY|sys.O_CREAT|sys.O_TRUNC, 0o644)
	r.check(e)
	if e != sys.OK {
		return
	}
	_, we := p.Write(wfd, r.buf.Get(8192))
	r.check(we)
	r.check(p.Close(wfd))
	rfd, e := p.Open(f, sys.O_RDONLY, 0)
	r.check(e)
	if e != sys.OK {
		return
	}
	for i := lo; i < hi; i++ {
		whence := []int{sys.SEEK_SET, sys.SEEK_CUR, sys.SEEK_END}[r.rng.Intn(3)]
		_, se := p.Lseek(rfd, int64(r.rng.Intn(8192)), whence)
		r.check(se)
	}
	r.check(p.Close(rfd))
}
