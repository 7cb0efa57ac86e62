// Package xfstests simulates the xfstests regression suite of the paper's
// evaluation: 706 generic tests plus 308 ext4-specific tests driving the
// simulated kernel under /mnt/test.
//
// The real xfstests is a corpus of hand-written shell/C tests accumulated
// over decades; what IOCov observes of it is the distribution of syscall
// inputs and outputs it produces. This simulator reproduces that
// distribution, calibrated against the paper's published numbers:
//
//   - open flags and flag-combination mix per Figure 2 and Table 1
//     (O_RDONLY ≈ 4.1M at full scale; 2-flag combos the second most common;
//     at most 6 flags; O_NOCTTY/O_ASYNC/O_LARGEFILE/O_NOATIME/O_PATH/
//     O_TMPFILE never used),
//   - write sizes per Figure 3 (every power-of-two bucket from 0 to 2^28,
//     maximum single write 258 MiB, nothing larger),
//   - open outputs per Figure 4 (a broad but incomplete errno set:
//     deliberate error-path tests trigger ENOENT, EEXIST, EISDIR, ENOTDIR,
//     EACCES, ELOOP, ENAMETOOLONG, EMFILE, EROFS, EINVAL, EOVERFLOW, while
//     ENOMEM, ENODEV, ENXIO, ETXTBSY, EDQUOT, ... stay untested).
//
// Tests are deterministic given Config.Seed.
package xfstests

import (
	"fmt"
	"math/rand"
	"strings"

	"iocov/internal/kernel"
	"iocov/internal/suites/workload"
	"iocov/internal/sys"
	"iocov/internal/vfs"
)

// MaxWriteSize is the largest single write the suite issues: the 258 MiB
// maximum the paper annotates in Figure 3.
const MaxWriteSize = 258 << 20

// Config parameterizes a run.
type Config struct {
	// Scale multiplies every op count; 1.0 reproduces full-run magnitudes
	// (≈ 9M traced syscalls), smaller values keep the same coverage shape
	// with proportionally lower frequencies. Zero means 1.0.
	Scale float64
	// Seed drives all pseudo-random choices. Runs with equal seeds are
	// identical.
	Seed int64
	// MountPoint is the filesystem-under-test directory (default
	// "/mnt/test", as in real xfstests).
	MountPoint string
	// GenericTests and FSTests are the test counts (defaults 706 and 308,
	// the populations the paper ran).
	GenericTests int
	FSTests      int
	// Noise emits out-of-mount bookkeeping syscalls (test harness logs,
	// /tmp scratch) that the trace filter must discard. Enabled by
	// default-ish callers; zero value disables.
	Noise bool
	// Shard and Shards select a deterministic slice of the run's work
	// items for parallel execution. The suite is decomposed into
	// independent items (one scenario test, one storm chunk), each with
	// its own seed-derived RNG; item g runs iff g % Shards == Shard, so
	// the union of work over all shards is identical to a serial run
	// whatever the shard count. Zero Shards means 1 (run everything).
	Shard  int
	Shards int
}

// Stats summarizes a run.
type Stats struct {
	Tests    int
	Ops      int64
	Failures int64
}

func (c *Config) fill() {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.MountPoint == "" {
		c.MountPoint = "/mnt/test"
	}
	if c.GenericTests <= 0 {
		c.GenericTests = 706
	}
	if c.FSTests <= 0 {
		c.FSTests = 308
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
}

// Full-scale op-storm counts, chosen so the headline magnitudes match the
// paper: stormOpens * P(O_RDONLY accmode) ≈ 0.60 * 6.85M ≈ 4.1M.
const (
	stormOpens     = 6_850_000
	stormWrites    = 1_500_000
	stormReads     = 900_000
	stormLseeks    = 400_000
	stormTruncates = 120_000
	stormMkdirs    = 90_000
	stormChmods    = 150_000
	stormSetxattrs = 60_000
	stormGetxattrs = 60_000
)

// openCombos encodes the Table 1 calibration: the all-row percentages
// {6.1, 28.2, 18.2, 46.8, 0.5, 0.4} split into O_RDONLY-containing and
// other combinations with an overall O_RDONLY share of 0.60, which yields
// the O_RDONLY-row percentages {6.0, 30.8, 10.5, 51.9, 0.5, 0.3}.
var openCombos = workload.NewWeightedFlags([]workload.FlagWeight{
	// 1 flag (6.1%): rd 3.60, other 2.50
	{Flags: sys.O_RDONLY, Weight: 3.60},
	{Flags: sys.O_WRONLY, Weight: 1.50},
	{Flags: sys.O_RDWR, Weight: 1.00},
	// 2 flags (28.2%): rd 18.48, other 9.72
	{Flags: sys.O_RDONLY | sys.O_CLOEXEC, Weight: 10.00},
	{Flags: sys.O_RDONLY | sys.O_DIRECTORY, Weight: 5.48},
	{Flags: sys.O_RDONLY | sys.O_NONBLOCK, Weight: 3.00},
	{Flags: sys.O_WRONLY | sys.O_CREAT, Weight: 5.00},
	{Flags: sys.O_RDWR | sys.O_CREAT, Weight: 3.00},
	{Flags: sys.O_WRONLY | sys.O_APPEND, Weight: 1.00},
	{Flags: sys.O_WRONLY | sys.O_TRUNC, Weight: 0.72},
	// 3 flags (18.2%): rd 6.30, other 11.90
	{Flags: sys.O_RDONLY | sys.O_DIRECTORY | sys.O_CLOEXEC, Weight: 4.00},
	{Flags: sys.O_RDONLY | sys.O_NOFOLLOW | sys.O_CLOEXEC, Weight: 2.30},
	{Flags: sys.O_WRONLY | sys.O_CREAT | sys.O_TRUNC, Weight: 8.00},
	{Flags: sys.O_RDWR | sys.O_CREAT | sys.O_EXCL, Weight: 3.90},
	// 4 flags (46.8%): rd 31.14, other 15.66
	{Flags: sys.O_RDONLY | sys.O_CREAT | sys.O_NONBLOCK | sys.O_CLOEXEC, Weight: 20.00},
	{Flags: sys.O_RDONLY | sys.O_DIRECTORY | sys.O_NOFOLLOW | sys.O_CLOEXEC, Weight: 11.14},
	{Flags: sys.O_WRONLY | sys.O_CREAT | sys.O_TRUNC | sys.O_SYNC, Weight: 6.00},
	{Flags: sys.O_RDWR | sys.O_CREAT | sys.O_TRUNC | sys.O_DSYNC, Weight: 5.00},
	{Flags: sys.O_RDWR | sys.O_CREAT | sys.O_EXCL | sys.O_DIRECT, Weight: 4.66},
	// 5 flags (0.5%): rd 0.30, other 0.20
	{Flags: sys.O_RDONLY | sys.O_CREAT | sys.O_EXCL | sys.O_NONBLOCK | sys.O_CLOEXEC, Weight: 0.30},
	{Flags: sys.O_WRONLY | sys.O_CREAT | sys.O_TRUNC | sys.O_DSYNC | sys.O_NOFOLLOW, Weight: 0.20},
	// 6 flags (0.4%): rd 0.18, other 0.22
	{Flags: sys.O_RDONLY | sys.O_CREAT | sys.O_EXCL | sys.O_NONBLOCK | sys.O_NOFOLLOW | sys.O_CLOEXEC, Weight: 0.18},
	{Flags: sys.O_RDWR | sys.O_CREAT | sys.O_EXCL | sys.O_TRUNC | sys.O_NONBLOCK | sys.O_CLOEXEC, Weight: 0.22},
})

// writeSizes covers every bucket Figure 3 shows for xfstests: "equal to 0"
// and 2^0 through 2^28, with frequency decaying roughly log-linearly from
// ~2M around page-sized writes down to single digits at the 258 MiB tail.
var writeSizes = workload.NewSizeDist([]workload.BucketWeight{
	{Bucket: -1, Weight: 900}, // size 0, the POSIX boundary case
	{Bucket: 0, Weight: 21000}, {Bucket: 1, Weight: 16000},
	{Bucket: 2, Weight: 45000}, {Bucket: 3, Weight: 52000},
	{Bucket: 4, Weight: 60000}, {Bucket: 5, Weight: 70000},
	{Bucket: 6, Weight: 90000}, {Bucket: 7, Weight: 110000},
	{Bucket: 8, Weight: 140000}, {Bucket: 9, Weight: 170000},
	{Bucket: 10, Weight: 190000}, {Bucket: 11, Weight: 180000},
	{Bucket: 12, Weight: 210000}, {Bucket: 13, Weight: 90000},
	{Bucket: 14, Weight: 42000}, {Bucket: 15, Weight: 21000},
	{Bucket: 16, Weight: 11000}, {Bucket: 17, Weight: 5600},
	{Bucket: 18, Weight: 2800}, {Bucket: 19, Weight: 1400},
	{Bucket: 20, Weight: 700}, {Bucket: 21, Weight: 340},
	{Bucket: 22, Weight: 170}, {Bucket: 23, Weight: 80},
	{Bucket: 24, Weight: 40}, {Bucket: 25, Weight: 18},
	{Bucket: 26, Weight: 8}, {Bucket: 27, Weight: 4},
	{Bucket: 28, Weight: 2},
}, MaxWriteSize)

// readSizes has a similar profile, capped at 1 MiB buffers.
var readSizes = workload.NewSizeDist([]workload.BucketWeight{
	{Bucket: -1, Weight: 300},
	{Bucket: 0, Weight: 9000}, {Bucket: 2, Weight: 17000},
	{Bucket: 4, Weight: 26000}, {Bucket: 6, Weight: 40000},
	{Bucket: 8, Weight: 70000}, {Bucket: 9, Weight: 110000},
	{Bucket: 10, Weight: 130000}, {Bucket: 12, Weight: 160000},
	{Bucket: 13, Weight: 60000}, {Bucket: 14, Weight: 26000},
	{Bucket: 16, Weight: 9000}, {Bucket: 18, Weight: 1800},
	{Bucket: 20, Weight: 400},
}, maxStormRead)

// xattrSizes spans the whole legal setxattr value range, including the
// empty value and the in-inode capacity region, but — deliberately, like
// the real suite per Figure 1's missed bug — not the exact maximum size.
var xattrSizes = workload.NewSizeDist([]workload.BucketWeight{
	{Bucket: -1, Weight: 200},
	{Bucket: 2, Weight: 800}, {Bucket: 4, Weight: 2200},
	{Bucket: 6, Weight: 3600}, {Bucket: 8, Weight: 2600},
	{Bucket: 10, Weight: 1100}, {Bucket: 12, Weight: 320},
	{Bucket: 14, Weight: 60},
}, 60000)

// truncLengths spans 0 to 64 MiB.
var truncLengths = workload.NewSizeDist([]workload.BucketWeight{
	{Bucket: -1, Weight: 3000},
	{Bucket: 0, Weight: 900}, {Bucket: 6, Weight: 2600},
	{Bucket: 9, Weight: 4800}, {Bucket: 12, Weight: 8600},
	{Bucket: 14, Weight: 4200}, {Bucket: 16, Weight: 2100},
	{Bucket: 18, Weight: 900}, {Bucket: 20, Weight: 420},
	{Bucket: 22, Weight: 160}, {Bucket: 24, Weight: 70},
	{Bucket: 26, Weight: 20},
}, 64<<20)

// chmodModes is the suite's palette of permission arguments, including the
// boundary values 0 and the setuid/setgid/sticky bits.
var chmodModes = []uint32{
	0o644, 0o600, 0o755, 0o700, 0o400, 0o444, 0o666, 0o777,
	0, 0o4755, 0o2755, 0o1777, 0o4000, 0o220, 0o111,
}

var mkdirModes = []uint32{0o755, 0o700, 0o777, 0o750, 0o711, 0o500}

// runner carries the per-run state.
type runner struct {
	cfg   Config
	k     *kernel.Kernel
	root  *kernel.Proc // root-credential process for setup
	user  *kernel.Proc // unprivileged process for permission tests
	rng   *rand.Rand
	buf   *workload.SharedBuf
	stats Stats

	// itemRNG is the one RNG every work item runs under: item reseeds it
	// with the item's seed and points rng at it, so an item allocates no
	// source of its own.
	itemRNG *rand.Rand

	mnt       string
	poolFiles []string
	poolDirs  []string

	// nextItem is the running work-item counter used for shard
	// assignment; it advances identically on every shard.
	nextItem int
}

// item runs fn as one deterministic work item. Items are enumerated in a
// fixed order by the running counter, assigned round-robin to shards, and
// each executes under an item-local RNG derived from (seed, item index) —
// so the union of generated workloads over all shards, and therefore the
// filtered trace reaching the analyzer, is independent of the shard count.
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

// Run executes the simulated suite against k. The kernel's filesystem must
// be writable and empty enough to host the mount point.
func Run(k *kernel.Kernel, cfg Config) (Stats, error) {
	cfg.fill()
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return Stats{}, fmt.Errorf("xfstests: shard %d out of range [0,%d)", cfg.Shard, cfg.Shards)
	}
	r := &runner{
		cfg:  cfg,
		k:    k,
		root: k.NewProc(kernel.ProcOptions{Cred: vfs.Root}),
		user: k.NewProc(kernel.ProcOptions{Cred: vfs.Cred{UID: 1000, GID: 1000}}),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		buf:  workload.NewSharedBuf(MaxWriteSize),
		mnt:  cfg.MountPoint,
	}
	// Setup runs untraced: every shard rebuilds the same mount point and
	// pools on its own filesystem, and those bookkeeping events must not
	// reach the analyzer once per shard when a serial run emits them once.
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
	r.runTests()
	r.storm()
	r.teardown()
	return r.stats, nil
}

// check tallies a syscall outcome.
func (r *runner) check(e sys.Errno) {
	r.stats.Ops++
	if e != sys.OK {
		r.stats.Failures++
	}
}

func (r *runner) setup() error {
	p := r.root
	// Build the mount point path component by component.
	parts := strings.Split(strings.Trim(r.mnt, "/"), "/")
	path := ""
	for _, c := range parts {
		path += "/" + c
		if e := p.Mkdir(path, 0o755); e != sys.OK && e != sys.EEXIST {
			return fmt.Errorf("xfstests: mkdir %s: %v", path, e)
		}
	}
	// World-writable mount so the unprivileged proc can create files too.
	if e := p.Chmod(r.mnt, 0o777); e != sys.OK {
		return fmt.Errorf("xfstests: chmod %s: %v", r.mnt, e)
	}
	// File and directory pools for the op storm.
	for i := 0; i < 64; i++ {
		f := fmt.Sprintf("%s/pool-f%02d", r.mnt, i)
		fd, e := p.Open(f, sys.O_CREAT|sys.O_WRONLY|sys.O_TRUNC, 0o666)
		if e != sys.OK {
			return fmt.Errorf("xfstests: create %s: %v", f, e)
		}
		if _, e := p.Write(fd, r.buf.Get(4096)); e != sys.OK {
			return fmt.Errorf("xfstests: populate %s: %v", f, e)
		}
		r.check(p.Close(fd))
		r.poolFiles = append(r.poolFiles, f)
	}
	for i := 0; i < 16; i++ {
		d := fmt.Sprintf("%s/pool-d%02d", r.mnt, i)
		if e := p.Mkdir(d, 0o777); e != sys.OK {
			return fmt.Errorf("xfstests: mkdir %s: %v", d, e)
		}
		r.poolDirs = append(r.poolDirs, d)
	}
	return nil
}

// emitNoise issues the out-of-mount syscalls a real test harness produces
// (reading its config, writing logs); IOCov's trace filter must drop them.
func (r *runner) emitNoise() {
	p := r.root
	_ = p.Mkdir("/tmp", 0o777)
	_ = p.Mkdir("/var", 0o755)
	_ = p.Mkdir("/var/log", 0o755)
	for i := 0; i < workload.ScaleCount(200, r.cfg.Scale); i++ {
		fd, e := p.Open("/var/log/xfstests.log", sys.O_CREAT|sys.O_WRONLY|sys.O_APPEND, 0o644)
		if e == sys.OK {
			_, _ = p.Write(fd, r.buf.Get(128))
			_ = p.Close(fd)
		}
		fd, e = p.Open("/tmp/check.tmp", sys.O_CREAT|sys.O_RDWR|sys.O_TRUNC, 0o600)
		if e == sys.OK {
			_, _ = p.Write(fd, r.buf.Get(512))
			_ = p.Close(fd)
		}
	}
}

func (r *runner) teardown() {
	r.root.CloseAll()
	r.user.CloseAll()
}
