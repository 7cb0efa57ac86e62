// Package kernel implements the syscall layer on top of internal/vfs: file
// descriptor tables, current working directories, umask, rlimits, fault
// injection, and — most importantly for IOCov — emission of one trace event
// per completed syscall, success or failure, exactly as LTTng would observe
// at the syscall boundary.
//
// The package provides all 27 syscalls the paper's prototype traces (11 base
// syscalls plus their variants) with Linux x86-64 semantics, and a handful
// of untracked helpers (unlink, rename, fsync, ...) the workload substrates
// need to build filesystem states.
package kernel

import (
	"sync"
	"sync/atomic"

	"iocov/internal/sys"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

// Kernel owns a filesystem, the system-wide file table accounting, the
// fault-injection rules, and the trace sink.
type Kernel struct {
	// fs, sink, faults and seq need no guarding here: fs and faults are
	// fixed at construction (FaultSet carries its own lock), sink is set
	// before any Proc runs, and seq is atomic.
	fs     *vfs.FS
	sink   trace.Sink
	faults *FaultSet
	seq    atomic.Uint64

	mu      sync.Mutex
	nextPID int
	openSys int // system-wide open file count (ENFILE)
	maxSys  int
}

// Options configures a Kernel.
type Options struct {
	// MaxSystemFiles bounds the system-wide open file table (ENFILE).
	// Zero means the default of 65536.
	MaxSystemFiles int
	// Sink receives one event per completed syscall; nil disables tracing.
	Sink trace.Sink
}

// New creates a kernel over fs.
func New(fs *vfs.FS, opts Options) *Kernel {
	if opts.MaxSystemFiles <= 0 {
		opts.MaxSystemFiles = 65536
	}
	return &Kernel{
		fs:      fs,
		sink:    opts.Sink,
		nextPID: 1,
		maxSys:  opts.MaxSystemFiles,
		faults:  NewFaultSet(),
	}
}

// FS returns the underlying filesystem.
func (k *Kernel) FS() *vfs.FS { return k.fs }

// MaxSystemFiles returns the system-wide open-file limit (ENFILE),
// defaults resolved.
func (k *Kernel) MaxSystemFiles() int { return k.maxSys }

// reserveFile takes one slot of the system-wide open-file table, or
// returns ENFILE when it is full.
func (k *Kernel) reserveFile() sys.Errno {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.openSys >= k.maxSys {
		return sys.ENFILE
	}
	k.openSys++
	return sys.OK
}

// releaseFiles returns n slots to the system-wide open-file table.
func (k *Kernel) releaseFiles(n int) {
	k.mu.Lock()
	k.openSys -= n
	k.mu.Unlock()
}

// Faults returns the kernel's fault-injection rule set.
func (k *Kernel) Faults() *FaultSet { return k.faults }

// SetSink replaces the trace sink (nil disables tracing).
func (k *Kernel) SetSink(s trace.Sink) { k.sink = s }

// Sink returns the current trace sink (nil when tracing is disabled).
func (k *Kernel) Sink() trace.Sink { return k.sink }

// Proc is a simulated process: credentials, cwd, umask, and a descriptor
// table with an RLIMIT_NOFILE-style bound. Proc methods are the syscall
// entry points; they are not safe for concurrent use by multiple goroutines
// (one goroutine per simulated process, as with real threads sharing an fd
// table, would require external locking).
type Proc struct {
	k    *Kernel
	pid  int
	cred vfs.Cred
	cwd  *vfs.Inode
	// fds is the descriptor table, indexed by fd; a nil entry is free. It
	// grows only to the highest descriptor in use, like Linux's
	// expand_files. nopen counts the non-nil entries.
	fds   []*file
	nopen int
	maxFD int
	umask uint32
}

// file is an open file description (the struct file analogue). It holds
// one system-wide slot (ENFILE) for as long as a descriptor refers to it;
// refs counts those descriptors.
type file struct {
	ino   *vfs.Inode
	flags int
	pos   int64
	path  string
	refs  int
}

// ProcOptions configures NewProc.
type ProcOptions struct {
	// Cred defaults to root.
	Cred vfs.Cred
	// MaxFDs is the per-process descriptor limit (EMFILE); zero means 1024.
	MaxFDs int
	// Umask defaults to 0o022.
	Umask uint32
	// UmaskSet forces Umask to be honored even when zero.
	UmaskSet bool
}

// NewProc creates a process whose cwd is the filesystem root.
func (k *Kernel) NewProc(opts ProcOptions) *Proc {
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	k.mu.Unlock()
	if opts.MaxFDs <= 0 {
		opts.MaxFDs = 1024
	}
	if opts.Umask == 0 && !opts.UmaskSet {
		opts.Umask = 0o022
	}
	return &Proc{
		k:     k,
		pid:   pid,
		cred:  opts.Cred,
		cwd:   k.fs.Root(),
		maxFD: opts.MaxFDs,
		umask: opts.Umask,
	}
}

// MaxFDs returns the process's descriptor limit (EMFILE), defaults
// resolved.
func (p *Proc) MaxFDs() int { return p.maxFD }

// PID returns the process id.
func (p *Proc) PID() int { return p.pid }

// FS returns the filesystem the process runs on.
func (p *Proc) FS() *vfs.FS { return p.k.fs }

// Cred returns the process credentials.
func (p *Proc) Cred() vfs.Cred { return p.cred }

// SetCred changes the process credentials (a setuid analogue for tests).
func (p *Proc) SetCred(c vfs.Cred) { p.cred = c }

// Umask sets the file-creation mask and returns the previous value.
func (p *Proc) Umask(mask uint32) uint32 {
	old := p.umask
	p.umask = mask & 0o777
	return old
}

// OpenFDs returns the currently open descriptor numbers in ascending
// order.
func (p *Proc) OpenFDs() []int {
	out := make([]int, 0, p.nopen)
	for fd, f := range p.fds {
		if f != nil {
			out = append(out, fd)
		}
	}
	return out
}

// CloseAll closes every open descriptor, for workload teardown.
func (p *Proc) CloseAll() {
	last := 0
	for _, f := range p.fds {
		if f != nil {
			if f.refs--; f.refs == 0 {
				last++
			}
		}
	}
	p.k.releaseFiles(last)
	clear(p.fds)
	p.fds, p.nopen = p.fds[:0], 0
}

// reserveFD checks the per-process descriptor limit (EMFILE) and takes a
// system-wide slot (ENFILE) for a new open file description.
func (p *Proc) reserveFD() sys.Errno {
	if p.nopen >= p.maxFD {
		return sys.EMFILE
	}
	return p.k.reserveFile()
}

// unref drops one descriptor's reference to f and gives the system-wide
// slot back when it was the last.
func (p *Proc) unref(f *file) {
	if f.refs--; f.refs == 0 {
		p.k.releaseFiles(1)
	}
}

// allocFD installs f at the lowest free descriptor number and returns it.
// The caller has checked the descriptor limit and, for a new description,
// taken its system-wide slot (reserveFD).
func (p *Proc) allocFD(f *file) int {
	fd := 3 // 0..2 reserved for std streams, as on Linux
	for fd < len(p.fds) && p.fds[fd] != nil {
		fd++
	}
	p.installFD(fd, f)
	return fd
}

// installFD puts f at the free descriptor fd, growing the table to reach
// it.
func (p *Proc) installFD(fd int, f *file) {
	if fd >= len(p.fds) {
		p.fds = append(p.fds, make([]*file, fd+1-len(p.fds))...)
	}
	p.fds[fd] = f
	f.refs++
	p.nopen++
}

func (p *Proc) lookupFD(fd int) (*file, sys.Errno) {
	if fd < 0 || fd >= len(p.fds) || p.fds[fd] == nil {
		return nil, sys.EBADF
	}
	return p.fds[fd], sys.OK
}

// ekv and eskv are the emit-site argument pairs. Emit sites pass small
// slice literals; because emit never retains them, escape analysis keeps
// the pair slices on the caller's stack and a traced syscall allocates
// nothing for its event.
type ekv struct {
	name string
	val  int64
}

type eskv struct {
	name, val string
}

// emit sends one completed-syscall event to the kernel's sink. The
// AllocsPerRun pin on the syscall cycle (TestSyscallCycleAllocs) budgets
// event emission at zero.
func (p *Proc) emit(name, path string, strs []eskv, args []ekv, ret int64, err sys.Errno) {
	if p.k.sink == nil {
		return
	}
	if err != sys.OK {
		ret = -int64(err)
	}
	ev := trace.Event{
		Seq:  p.k.seq.Add(1),
		PID:  p.pid,
		Name: name,
		Path: path,
		Ret:  ret,
		Err:  err,
	}
	for _, s := range strs {
		ev.AddStr(s.name, s.val)
	}
	for _, a := range args {
		ev.AddArg(a.name, a.val)
	}
	p.k.sink.Emit(ev)
}

// retFD converts an (fd, errno) pair to the traced return value.
func retFD(fd int, err sys.Errno) int64 {
	if err != sys.OK {
		return -int64(err)
	}
	return int64(fd)
}

// dirfdBase resolves an openat-style dirfd to the base inode for path
// resolution: AT_FDCWD means the cwd, otherwise the descriptor must name a
// directory.
func (p *Proc) dirfdBase(dirfd int, path string) (*vfs.Inode, sys.Errno) {
	if len(path) > 0 && path[0] == '/' {
		return p.k.fs.Root(), sys.OK
	}
	if dirfd == sys.AT_FDCWD {
		return p.cwd, sys.OK
	}
	f, e := p.lookupFD(dirfd)
	if e != sys.OK {
		return nil, e
	}
	if f.ino.Type() != vfs.TypeDir {
		return nil, sys.ENOTDIR
	}
	return f.ino, sys.OK
}
