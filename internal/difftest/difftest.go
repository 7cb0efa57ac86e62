package difftest

import (
	"fmt"
	"math"
	"math/rand"

	"iocov/internal/coverage"
	"iocov/internal/kernel"
	"iocov/internal/sys"
	"iocov/internal/syz"
	"iocov/internal/vfs"
)

// Config parameterizes a differential-testing run.
type Config struct {
	// Ops is the number of operations to generate.
	Ops int
	// Seed makes runs reproducible.
	Seed int64
	// GuideEvery enables IOCov coverage guidance: every N ops the
	// generator inspects its own input coverage and targets an untested
	// partition (boundary size, unused flag). Zero disables guidance.
	GuideEvery int
	// FS configures the filesystem under test; the zero value uses
	// vfs.DefaultConfig. Injected bugs go in FS.Bugs.
	FS vfs.Config
}

// Mismatch is one divergence between the kernel under test and the
// reference model — a candidate bug.
type Mismatch struct {
	OpIndex int
	Op      string
	Kernel  string
	Model   string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("op %d %s: kernel %s, model %s", m.OpIndex, m.Op, m.Kernel, m.Model)
}

// Result summarizes a run.
type Result struct {
	Ops        int
	Guided     int
	Mismatches []Mismatch
	// Analyzer exposes the run's own input/output coverage, so callers can
	// see what the generator exercised.
	Analyzer *coverage.Analyzer
}

// Tester drives the kernel under test and the model in lockstep.
type Tester struct {
	cfg   Config
	rng   *rand.Rand
	p     *kernel.Proc
	model *Model
	an    *coverage.Analyzer

	files []string
	dirs  []string
	fds   []int

	res Result
}

// Run executes a differential-testing session.
func Run(cfg Config) *Result {
	if cfg.Ops <= 0 {
		cfg.Ops = 1000
	}
	def := vfs.DefaultConfig()
	if cfg.FS.BlockSize == 0 && cfg.FS.CapacityBytes == 0 {
		bugs := cfg.FS.Bugs
		cfg.FS = def
		cfg.FS.Bugs = bugs
	}
	fs := vfs.New(cfg.FS)
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	k := kernel.New(fs, kernel.Options{Sink: an})
	fsCfg := fs.Config()
	t := &Tester{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		p:     k.NewProc(kernel.ProcOptions{Cred: vfs.Root}),
		model: NewModel(fsCfg.MaxFileSize, fsCfg.MaxXattrValue, fsCfg.XattrCapacity),
		an:    an,
	}
	t.model.maxFDs, t.model.maxFiles = t.p.MaxFDs(), k.MaxSystemFiles()
	t.res.Analyzer = an
	for i := 0; i < 12; i++ {
		t.files = append(t.files, fmt.Sprintf("/f%d", i))
	}
	for i := 0; i < 4; i++ {
		d := fmt.Sprintf("/d%d", i)
		t.dirs = append(t.dirs, d)
		ke := t.p.Mkdir(d, 0o755)
		me := t.model.Mkdir(d, 0o755)
		t.compare(-1, fmt.Sprintf("mkdir(%s)", d), int64(0), ke, 0, me)
	}
	for i := 0; i < cfg.Ops; i++ {
		if cfg.GuideEvery > 0 && i > 0 && i%cfg.GuideEvery == 0 {
			t.guidedOp(i)
			t.res.Guided++
		} else {
			t.randomOp(i)
		}
		if i%64 == 63 {
			t.checkState(i)
		}
	}
	t.checkState(cfg.Ops)
	t.res.Ops = cfg.Ops
	return &t.res
}

// compare records a mismatch when outcomes diverge. rets are compared only
// when both sides succeed.
func (t *Tester) compare(i int, op string, kret int64, kerr sys.Errno, mret int64, merr sys.Errno) {
	if kerr != merr {
		t.res.Mismatches = append(t.res.Mismatches, Mismatch{
			OpIndex: i, Op: op,
			Kernel: fmt.Sprintf("errno %s", kerr), Model: fmt.Sprintf("errno %s", merr),
		})
		return
	}
	if kerr == sys.OK && kret != mret {
		t.res.Mismatches = append(t.res.Mismatches, Mismatch{
			OpIndex: i, Op: op,
			Kernel: fmt.Sprintf("ret %d", kret), Model: fmt.Sprintf("ret %d", mret),
		})
	}
}

// checkState compares observable file sizes between kernel and model.
func (t *Tester) checkState(i int) {
	for _, f := range t.files {
		mSize, ok := t.model.FileSize(f)
		st, ke := t.p.Stat(f)
		switch {
		case ok && ke == sys.OK:
			if st.Size != mSize {
				t.res.Mismatches = append(t.res.Mismatches, Mismatch{
					OpIndex: i, Op: fmt.Sprintf("stat(%s)", f),
					Kernel: fmt.Sprintf("size %d", st.Size), Model: fmt.Sprintf("size %d", mSize),
				})
			}
		case ok != (ke == sys.OK):
			t.res.Mismatches = append(t.res.Mismatches, Mismatch{
				OpIndex: i, Op: fmt.Sprintf("stat(%s)", f),
				Kernel: ke.Name(), Model: fmt.Sprintf("exists=%v", ok),
			})
		}
	}
}

// generator flag pool: flags the model understands (semantic ones) plus
// pass-through flags that only affect input coverage.
var genFlags = []int{
	sys.O_CREAT, sys.O_EXCL, sys.O_TRUNC, sys.O_APPEND, sys.O_LARGEFILE,
	sys.O_NONBLOCK, sys.O_SYNC, sys.O_DSYNC, sys.O_CLOEXEC, sys.O_NOATIME,
	sys.O_NOCTTY, sys.O_ASYNC,
}

func (t *Tester) randFlags() int {
	flags := []int{sys.O_RDONLY, sys.O_WRONLY, sys.O_RDWR}[t.rng.Intn(3)]
	n := t.rng.Intn(4)
	for j := 0; j < n; j++ {
		flags |= genFlags[t.rng.Intn(len(genFlags))]
	}
	return flags
}

func (t *Tester) randSize() int64 {
	k := t.rng.Intn(22)
	base := int64(1) << uint(k)
	return base + t.rng.Int63n(base)
}

func (t *Tester) randomOp(i int) {
	switch t.rng.Intn(12) {
	case 0, 1:
		t.opOpen(i, t.randFlags(), 0o644)
	case 2, 3:
		t.opWrite(i, t.randSize())
	case 4:
		t.opRead(i, t.randSize())
	case 5:
		t.opLseek(i, t.rng.Int63n(1<<20), t.rng.Intn(5))
	case 6:
		t.opTruncate(i, t.rng.Int63n(1<<22))
	case 7:
		t.opChmodMkdir(i)
	case 8:
		t.opXattr(i, int(t.rng.Int63n(4096)))
	case 9:
		t.opClose(i)
	case 10:
		t.opFallocate(i)
	case 11:
		t.opRemovexattr(i)
	}
}

func (t *Tester) opFallocate(i int) {
	fd, ok := t.pickFD()
	if !ok {
		return
	}
	mode := []int{0, 0, 0, vfs.FallocKeepSize, 0x99}[t.rng.Intn(5)]
	off := t.rng.Int63n(1 << 20)
	length := t.rng.Int63n(1<<20) + 1
	if t.rng.Intn(8) == 0 {
		length = 0 // EINVAL path
	}
	ke := t.p.Fallocate(fd, mode, off, length)
	me := t.model.Fallocate(fd, mode, off, length)
	t.compare(i, fmt.Sprintf("fallocate(fd=%d,%#x,%d,%d)", fd, mode, off, length), 0, ke, 0, me)
}

func (t *Tester) opRemovexattr(i int) {
	path := t.files[t.rng.Intn(len(t.files))]
	name := fmt.Sprintf("user.x%d", t.rng.Intn(3))
	ke := t.p.Removexattr(path, name)
	me := t.model.Removexattr(path, name)
	t.compare(i, fmt.Sprintf("removexattr(%s,%s)", path, name), 0, ke, 0, me)
}

// guidedOp consults the run's own IOCov coverage for untested partitions
// and generates a boundary-value op targeting one of them. This is the
// coverage feedback loop the paper proposes.
func (t *Tester) guidedOp(i int) {
	switch t.rng.Intn(4) {
	case 0:
		// Untested open flag: include it in the next open.
		if rep := t.an.InputReport("open", "flags"); rep != nil {
			untested := rep.Untested()
			if len(untested) > 0 {
				name := untested[t.rng.Intn(len(untested))]
				if bits, ok := sys.EncodeOpenFlags([]string{name}); ok {
					// O_PATH/O_TMPFILE/O_DIRECT have side conditions the
					// model does not predict; skip them.
					if bits&(sys.O_PATH|sys.O_TMPFILE|sys.O_DIRECT|sys.O_DIRECTORY|sys.O_NOFOLLOW) == 0 {
						t.opOpen(i, t.randFlags()|bits, 0o644)
						return
					}
				}
			}
		}
		t.opOpen(i, t.randFlags(), 0o644)
	case 1:
		// Untested write-size bucket: write exactly at its lower boundary,
		// up to the tester's 2^24 buffer cap.
		if size, ok := guidedValue(t.an, "write", "count", 1<<24); ok {
			t.opWrite(i, size)
			return
		}
		t.opWrite(i, 0) // the zero boundary
	case 2:
		// Untested truncate-length bucket; the 2^31 probe crosses the
		// large-file limit, the partition whose untestedness hides the
		// O_LARGEFILE bug class.
		if length, ok := guidedValue(t.an, "truncate", "length", math.MaxInt64); ok {
			t.opTruncate(i, length)
			return
		}
		t.opTruncate(i, 1<<31)
	default:
		// Untested setxattr-size bucket, capped at the legal maximum —
		// exactly the probe that exposes Figure 1's bug.
		maxV := int64(t.model.maxXattrValue)
		if size, ok := guidedValue(t.an, "setxattr", "size", maxV); ok {
			t.opXattr(i, int(size))
			return
		}
		t.opXattr(i, int(maxV))
	}
}

// guidedValue returns the syz probe table's value for the first untested
// partition of syscall.arg in an that is at most limit, the largest value
// the tester passes there.
func guidedValue(an *coverage.Analyzer, syscall, arg string, limit int64) (int64, bool) {
	probe := syz.ProbeFor(syscall, arg)
	for _, label := range probe.Untested(an) {
		if v, _ := probe.Value(label); v <= limit {
			return v, true
		}
	}
	return 0, false
}

func (t *Tester) opOpen(i int, flags int, mode uint32) {
	path := t.files[t.rng.Intn(len(t.files))]
	kfd, ke := t.p.Open(path, flags, mode)
	var me sys.Errno
	if ke == sys.OK {
		me = t.model.Open(kfd, path, flags, mode)
	} else {
		// Predict with a throwaway fd number; the model must agree on the
		// errno.
		me = t.model.Open(-1, path, flags, mode)
		if me == sys.OK {
			delete(t.model.fds, -1)
		}
	}
	t.compare(i, fmt.Sprintf("open(%s,%s)", path, sys.FormatOpenFlags(flags)), 0, ke, 0, me)
	if ke == sys.OK && me == sys.OK {
		t.fds = append(t.fds, kfd)
	} else if ke == sys.OK {
		_ = t.p.Close(kfd)
	}
}

func (t *Tester) pickFD() (int, bool) {
	if len(t.fds) == 0 {
		return 0, false
	}
	return t.fds[t.rng.Intn(len(t.fds))], true
}

func (t *Tester) opWrite(i int, size int64) {
	fd, ok := t.pickFD()
	if !ok {
		t.opOpen(i, sys.O_CREAT|sys.O_RDWR, 0o644)
		return
	}
	if size > 1<<24 {
		size = 1 << 24
	}
	kn, ke := t.p.Write(fd, make([]byte, size))
	mn, me := t.model.Write(fd, size)
	t.compare(i, fmt.Sprintf("write(fd=%d,%d)", fd, size), int64(kn), ke, mn, me)
}

func (t *Tester) opRead(i int, size int64) {
	fd, ok := t.pickFD()
	if !ok {
		return
	}
	if size > 1<<24 {
		size = 1 << 24
	}
	kn, ke := t.p.Read(fd, make([]byte, size))
	mn, me := t.model.Read(fd, size)
	t.compare(i, fmt.Sprintf("read(fd=%d,%d)", fd, size), int64(kn), ke, mn, me)
}

func (t *Tester) opLseek(i int, off int64, whence int) {
	fd, ok := t.pickFD()
	if !ok {
		return
	}
	kp, ke := t.p.Lseek(fd, off, whence)
	mp, me := t.model.Lseek(fd, off, whence)
	t.compare(i, fmt.Sprintf("lseek(fd=%d,%d,%s)", fd, off, sys.WhenceName(whence)), kp, ke, mp, me)
}

func (t *Tester) opTruncate(i int, length int64) {
	if t.rng.Intn(2) == 0 {
		if fd, ok := t.pickFD(); ok {
			ke := t.p.Ftruncate(fd, length)
			me := t.model.Ftruncate(fd, length)
			t.compare(i, fmt.Sprintf("ftruncate(fd=%d,%d)", fd, length), 0, ke, 0, me)
			return
		}
	}
	path := t.files[t.rng.Intn(len(t.files))]
	ke := t.p.Truncate(path, length)
	me := t.model.Truncate(path, length)
	t.compare(i, fmt.Sprintf("truncate(%s,%d)", path, length), 0, ke, 0, me)
}

func (t *Tester) opChmodMkdir(i int) {
	if t.rng.Intn(2) == 0 {
		path := t.files[t.rng.Intn(len(t.files))]
		mode := uint32(t.rng.Intn(0o1000))
		ke := t.p.Chmod(path, mode)
		me := t.model.Chmod(path, mode)
		t.compare(i, fmt.Sprintf("chmod(%s,%o)", path, mode), 0, ke, 0, me)
		return
	}
	d := fmt.Sprintf("/d%d", t.rng.Intn(8))
	ke := t.p.Mkdir(d, 0o755)
	me := t.model.Mkdir(d, 0o755)
	t.compare(i, fmt.Sprintf("mkdir(%s)", d), 0, ke, 0, me)
}

func (t *Tester) opXattr(i int, size int) {
	path := t.files[t.rng.Intn(len(t.files))]
	name := fmt.Sprintf("user.x%d", t.rng.Intn(3))
	if t.rng.Intn(3) == 0 {
		bufSize := t.rng.Intn(2 * (size + 1))
		kn, ke := t.p.Getxattr(path, name, make([]byte, bufSize))
		mn, me := t.model.Getxattr(path, name, bufSize)
		t.compare(i, fmt.Sprintf("getxattr(%s,%s,%d)", path, name, bufSize), int64(kn), ke, mn, me)
		return
	}
	flags := []int{0, 0, 0, sys.XATTR_CREATE, sys.XATTR_REPLACE}[t.rng.Intn(5)]
	ke := t.p.Setxattr(path, name, make([]byte, size), flags)
	me := t.model.Setxattr(path, name, size, flags)
	t.compare(i, fmt.Sprintf("setxattr(%s,%s,%d,%d)", path, name, size, flags), 0, ke, 0, me)
}

func (t *Tester) opClose(i int) {
	if len(t.fds) == 0 {
		return
	}
	idx := t.rng.Intn(len(t.fds))
	fd := t.fds[idx]
	t.fds = append(t.fds[:idx], t.fds[idx+1:]...)
	ke := t.p.Close(fd)
	me := t.model.Close(fd)
	t.compare(i, fmt.Sprintf("close(fd=%d)", fd), 0, ke, 0, me)
}
