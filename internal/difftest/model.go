// Package difftest implements the paper's future-work direction (§6): a
// differential file-system tester built on IOCov. A generator produces
// syscall workloads, biased by IOCov coverage feedback toward untested
// input partitions (boundary sizes, unused flags); every operation runs
// against the simulated kernel AND an independent reference model of POSIX
// semantics, and any divergence in outcome or observable state is reported
// as a candidate bug.
//
// The reference model is deliberately a from-scratch second implementation
// — a flat-namespace spec interpreter — rather than a second instance of
// internal/vfs, so that an injected VFS bug cannot hide in shared code.
package difftest

import (
	"iocov/internal/sys"
)

// mfile is the model's record of a regular file.
type mfile struct {
	size   int64
	mode   uint32
	xattrs map[string]int // name -> value size
}

// mdir is the model's record of a directory.
type mdir struct {
	mode uint32
}

// mfd is an open descriptor in the model.
type mfd struct {
	path   string
	flags  int
	pos    int64
	closed bool
}

// Model is the reference interpreter. It understands the flat namespace the
// generator uses: a single working directory of files and directories, no
// symlinks, root credentials.
type Model struct {
	files map[string]*mfile
	dirs  map[string]*mdir
	fds   map[int]*mfd

	// limits mirror the kernel configuration under test.
	maxFileSize   int64
	maxXattrValue int
	xattrCapacity int
	largeFileLim  int64
	xattrOverhead int
	// maxFDs is the per-process descriptor limit (EMFILE) and maxFiles
	// the system-wide open-file limit (ENFILE); zero means unlimited. The
	// model is the only process, so its descriptors are all the open
	// files.
	maxFDs, maxFiles int
}

// NewModel builds a model with the given limits (matching vfs.Config).
func NewModel(maxFileSize int64, maxXattrValue, xattrCapacity int) *Model {
	m := &Model{
		files:         make(map[string]*mfile),
		dirs:          make(map[string]*mdir),
		fds:           make(map[int]*mfd),
		maxFileSize:   maxFileSize,
		maxXattrValue: maxXattrValue,
		xattrCapacity: xattrCapacity,
		largeFileLim:  1 << 31,
		xattrOverhead: 16 + 6, // entry overhead + "user.x" style name length is applied per-name below
	}
	m.dirs["/"] = &mdir{mode: 0o755}
	return m
}

// Open predicts open(2)'s outcome and registers fd on success.
func (m *Model) Open(fd int, path string, flags int, mode uint32) sys.Errno {
	accWrite := flags&sys.O_ACCMODE == sys.O_WRONLY || flags&sys.O_ACCMODE == sys.O_RDWR
	if flags&sys.O_ACCMODE == sys.O_ACCMODE {
		return sys.EINVAL
	}
	if e := m.fdLimit(); e != sys.OK {
		return e
	}
	if _, isDir := m.dirs[path]; isDir {
		if accWrite {
			return sys.EISDIR
		}
		m.fds[fd] = &mfd{path: path, flags: flags}
		return sys.OK
	}
	f, exists := m.files[path]
	switch {
	case exists && flags&(sys.O_CREAT|sys.O_EXCL) == sys.O_CREAT|sys.O_EXCL:
		return sys.EEXIST
	case !exists && flags&sys.O_CREAT == 0:
		return sys.ENOENT
	case flags&sys.O_DIRECTORY != 0:
		if exists {
			return sys.ENOTDIR
		}
		return sys.ENOENT
	}
	if !exists {
		f = &mfile{mode: mode & 0o7777, xattrs: make(map[string]int)}
		m.files[path] = f
	}
	// generic_file_open: >= 2 GiB requires O_LARGEFILE.
	if f.size >= m.largeFileLim && flags&sys.O_LARGEFILE == 0 {
		if !exists {
			// cannot happen: a fresh file has size 0
			return sys.EOVERFLOW
		}
		return sys.EOVERFLOW
	}
	if flags&sys.O_TRUNC != 0 && accWrite {
		f.size = 0
	}
	pos := int64(0)
	if flags&sys.O_APPEND != 0 {
		pos = f.size
	}
	m.fds[fd] = &mfd{path: path, flags: flags, pos: pos}
	return sys.OK
}

// fdLimit predicts the descriptor limit an open hits. Linux takes the
// descriptor (get_unused_fd_flags), then the struct file
// (alloc_empty_file), before it looks the path up, so Open checks this
// first: EMFILE, then ENFILE, win over path errors and leave the file alone
// (no creation, no O_TRUNC).
func (m *Model) fdLimit() sys.Errno {
	open := 0
	for _, d := range m.fds {
		if !d.closed {
			open++
		}
	}
	switch {
	case m.maxFDs > 0 && open >= m.maxFDs:
		return sys.EMFILE
	case m.maxFiles > 0 && open >= m.maxFiles:
		return sys.ENFILE
	}
	return sys.OK
}

func (m *Model) fd(fd int) (*mfd, sys.Errno) {
	f, ok := m.fds[fd]
	if !ok || f.closed {
		return nil, sys.EBADF
	}
	return f, sys.OK
}

// Write predicts write(2): returns the byte count and errno.
func (m *Model) Write(fd int, count int64) (int64, sys.Errno) {
	f, e := m.fd(fd)
	if e != sys.OK {
		return 0, e
	}
	acc := f.flags & sys.O_ACCMODE
	if acc != sys.O_WRONLY && acc != sys.O_RDWR {
		return 0, sys.EBADF
	}
	file := m.files[f.path]
	if file == nil {
		return 0, sys.EISDIR
	}
	if count == 0 {
		return 0, sys.OK
	}
	pos := f.pos
	if f.flags&sys.O_APPEND != 0 {
		pos = file.size
	}
	end := pos + count
	if end > m.maxFileSize {
		return 0, sys.EFBIG
	}
	f.pos = pos + count
	if end > file.size {
		file.size = end
	}
	return count, sys.OK
}

// Read predicts read(2)'s byte count.
func (m *Model) Read(fd int, count int64) (int64, sys.Errno) {
	f, e := m.fd(fd)
	if e != sys.OK {
		return 0, e
	}
	acc := f.flags & sys.O_ACCMODE
	if acc != sys.O_RDONLY && acc != sys.O_RDWR {
		return 0, sys.EBADF
	}
	file := m.files[f.path]
	if file == nil {
		return 0, sys.EISDIR
	}
	n := file.size - f.pos
	if n <= 0 {
		return 0, sys.OK
	}
	if n > count {
		n = count
	}
	f.pos += n
	return n, sys.OK
}

// Lseek predicts lseek(2).
func (m *Model) Lseek(fd int, off int64, whence int) (int64, sys.Errno) {
	f, e := m.fd(fd)
	if e != sys.OK {
		return 0, e
	}
	var size int64
	if file := m.files[f.path]; file != nil {
		size = file.size
	}
	var target int64
	switch whence {
	case sys.SEEK_SET:
		target = off
	case sys.SEEK_CUR:
		target = f.pos + off
	case sys.SEEK_END:
		target = size + off
	case sys.SEEK_DATA:
		if off >= size {
			return 0, sys.ENXIO
		}
		target = off
	case sys.SEEK_HOLE:
		if off >= size {
			return 0, sys.ENXIO
		}
		target = size
	default:
		return 0, sys.EINVAL
	}
	if target < 0 {
		return 0, sys.EINVAL
	}
	f.pos = target
	return target, sys.OK
}

// Truncate predicts truncate(2) by path.
func (m *Model) Truncate(path string, length int64) sys.Errno {
	if _, isDir := m.dirs[path]; isDir {
		return sys.EISDIR
	}
	f, ok := m.files[path]
	if !ok {
		return sys.ENOENT
	}
	if length < 0 {
		return sys.EINVAL
	}
	if length > m.maxFileSize {
		return sys.EFBIG
	}
	f.size = length
	return sys.OK
}

// Ftruncate predicts ftruncate(2).
func (m *Model) Ftruncate(fd int, length int64) sys.Errno {
	f, e := m.fd(fd)
	if e != sys.OK {
		return e
	}
	acc := f.flags & sys.O_ACCMODE
	if acc != sys.O_WRONLY && acc != sys.O_RDWR {
		return sys.EINVAL
	}
	file := m.files[f.path]
	if file == nil {
		return sys.EISDIR
	}
	if length < 0 {
		return sys.EINVAL
	}
	if length > m.maxFileSize {
		return sys.EFBIG
	}
	file.size = length
	return sys.OK
}

// Mkdir predicts mkdir(2).
func (m *Model) Mkdir(path string, mode uint32) sys.Errno {
	if _, ok := m.dirs[path]; ok {
		return sys.EEXIST
	}
	if _, ok := m.files[path]; ok {
		return sys.EEXIST
	}
	m.dirs[path] = &mdir{mode: mode & 0o7777}
	return sys.OK
}

// Chmod predicts chmod(2).
func (m *Model) Chmod(path string, mode uint32) sys.Errno {
	if d, ok := m.dirs[path]; ok {
		d.mode = mode & 0o7777
		return sys.OK
	}
	if f, ok := m.files[path]; ok {
		f.mode = mode & 0o7777
		return sys.OK
	}
	return sys.ENOENT
}

// Close predicts close(2).
func (m *Model) Close(fd int) sys.Errno {
	f, e := m.fd(fd)
	if e != sys.OK {
		return e
	}
	f.closed = true
	return sys.OK
}

// Setxattr predicts setxattr(2) including the capacity check that Figure
// 1's bug omits.
func (m *Model) Setxattr(path, name string, size int, flags int) sys.Errno {
	f, ok := m.files[path]
	if !ok {
		if _, isDir := m.dirs[path]; isDir {
			return sys.OK // directories accept xattrs; model them loosely
		}
		return sys.ENOENT
	}
	if flags&^(sys.XATTR_CREATE|sys.XATTR_REPLACE) != 0 ||
		flags == sys.XATTR_CREATE|sys.XATTR_REPLACE {
		return sys.EINVAL
	}
	if size > m.maxXattrValue {
		return sys.E2BIG
	}
	old, exists := f.xattrs[name]
	if flags == sys.XATTR_CREATE && exists {
		return sys.EEXIST
	}
	if flags == sys.XATTR_REPLACE && !exists {
		return sys.ENODATA
	}
	total := 0
	for n, sz := range f.xattrs {
		total += len(n) + sz + 16
	}
	total += len(name) + size + 16
	if exists {
		total -= len(name) + old + 16
	}
	if total > m.xattrCapacity {
		return sys.ENOSPC
	}
	f.xattrs[name] = size
	return sys.OK
}

// Getxattr predicts getxattr(2)'s returned size.
func (m *Model) Getxattr(path, name string, bufSize int) (int64, sys.Errno) {
	f, ok := m.files[path]
	if !ok {
		return 0, sys.ENOENT
	}
	size, ok := f.xattrs[name]
	if !ok {
		return 0, sys.ENODATA
	}
	if bufSize == 0 {
		return int64(size), sys.OK
	}
	if bufSize < size {
		return 0, sys.ERANGE
	}
	return int64(size), sys.OK
}

// Fallocate predicts fallocate(2) with mode 0 or FALLOC_FL_KEEP_SIZE.
func (m *Model) Fallocate(fd int, mode int, off, length int64) sys.Errno {
	f, e := m.fd(fd)
	if e != sys.OK {
		return e
	}
	acc := f.flags & sys.O_ACCMODE
	if acc != sys.O_WRONLY && acc != sys.O_RDWR {
		return sys.EBADF
	}
	file := m.files[f.path]
	if file == nil {
		return sys.ENODEV // directories are not fallocate targets
	}
	if off < 0 || length <= 0 {
		return sys.EINVAL
	}
	if mode&^1 != 0 { // only FALLOC_FL_KEEP_SIZE understood
		return sys.ENOTSUP
	}
	end := off + length
	if end > m.maxFileSize {
		return sys.EFBIG
	}
	if mode&1 == 0 && end > file.size {
		file.size = end
	}
	return sys.OK
}

// Removexattr predicts removexattr(2).
func (m *Model) Removexattr(path, name string) sys.Errno {
	f, ok := m.files[path]
	if !ok {
		if _, isDir := m.dirs[path]; isDir {
			return sys.ENODATA // model stores no directory xattrs
		}
		return sys.ENOENT
	}
	if _, ok := f.xattrs[name]; !ok {
		return sys.ENODATA
	}
	delete(f.xattrs, name)
	return sys.OK
}

// FileSize reports the model's view of a file size, for state comparison.
func (m *Model) FileSize(path string) (int64, bool) {
	f, ok := m.files[path]
	if !ok {
		return 0, false
	}
	return f.size, true
}
