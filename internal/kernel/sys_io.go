package kernel

import (
	"iocov/internal/sys"
	"iocov/internal/vfs"
)

// readableFD validates fd for reading: it must exist, not be O_PATH, and
// have a read access mode. Linux returns EBADF in all three cases.
func (p *Proc) readableFD(fd int) (*file, sys.Errno) {
	f, e := p.lookupFD(fd)
	if e != sys.OK {
		return nil, e
	}
	if f.flags&sys.O_PATH != 0 {
		return nil, sys.EBADF
	}
	acc := f.flags & sys.O_ACCMODE
	if acc != sys.O_RDONLY && acc != sys.O_RDWR {
		return nil, sys.EBADF
	}
	return f, sys.OK
}

// writableFD validates fd for writing.
func (p *Proc) writableFD(fd int) (*file, sys.Errno) {
	f, e := p.lookupFD(fd)
	if e != sys.OK {
		return nil, e
	}
	if f.flags&sys.O_PATH != 0 {
		return nil, sys.EBADF
	}
	acc := f.flags & sys.O_ACCMODE
	if acc != sys.O_WRONLY && acc != sys.O_RDWR {
		return nil, sys.EBADF
	}
	return f, sys.OK
}

// Read is read(2); it reads up to len(buf) bytes at the file position.
func (p *Proc) Read(fd int, buf []byte) (int, sys.Errno) {
	n, err := p.readInner("read", fd, buf, -1)
	p.emit("read", "", nil,
		[]ekv{{"fd", int64(fd)}, {"count", int64(len(buf))}},
		int64(n), err)
	return n, err
}

// Pread64 is pread64(2): positional read that leaves the file offset alone.
func (p *Proc) Pread64(fd int, buf []byte, off int64) (int, sys.Errno) {
	n, err := p.readInner("pread64", fd, buf, off)
	p.emit("pread64", "", nil,
		[]ekv{{"fd", int64(fd)}, {"count", int64(len(buf))}, {"pos", off}},
		int64(n), err)
	return n, err
}

// Readv is readv(2): scatter read into iovs at the file position. The traced
// count is the total buffer size, matching what LTTng derives from the
// iovec array.
func (p *Proc) Readv(fd int, iovs [][]byte) (int, sys.Errno) {
	total := 0
	for _, iov := range iovs {
		total += len(iov)
	}
	n, err := p.readvInner(fd, iovs)
	p.emit("readv", "", nil,
		[]ekv{{"fd", int64(fd)}, {"vlen", int64(len(iovs))}, {"count", int64(total)}},
		int64(n), err)
	return n, err
}

func (p *Proc) readInner(name string, fd int, buf []byte, off int64) (int, sys.Errno) {
	if e, hit := p.checkFault(name); hit {
		return 0, e
	}
	f, e := p.readableFD(fd)
	if e != sys.OK {
		return 0, e
	}
	if f.ino.Type() == vfs.TypeDir {
		return 0, sys.EISDIR
	}
	pos := off
	advance := false
	if off < 0 {
		pos = f.pos
		advance = true
	}
	n, e := p.k.fs.ReadAt(p.cred, f.ino, buf, pos)
	if e != sys.OK {
		return 0, e
	}
	if advance {
		f.pos += int64(n)
	}
	if f.flags&sys.O_NOATIME == 0 {
		p.k.fs.TouchAtime(f.ino)
	}
	return n, sys.OK
}

func (p *Proc) readvInner(fd int, iovs [][]byte) (int, sys.Errno) {
	if e, hit := p.checkFault("readv"); hit {
		return 0, e
	}
	if len(iovs) > 1024 { // UIO_MAXIOV
		return 0, sys.EINVAL
	}
	f, e := p.readableFD(fd)
	if e != sys.OK {
		return 0, e
	}
	if f.ino.Type() == vfs.TypeDir {
		return 0, sys.EISDIR
	}
	total := 0
	for _, iov := range iovs {
		n, e := p.k.fs.ReadAt(p.cred, f.ino, iov, f.pos)
		if e != sys.OK {
			if total > 0 {
				break
			}
			return 0, e
		}
		f.pos += int64(n)
		total += n
		if n < len(iov) {
			break
		}
	}
	return total, sys.OK
}

// Write is write(2).
func (p *Proc) Write(fd int, buf []byte) (int, sys.Errno) {
	n, err := p.writeInner("write", fd, buf, -1)
	p.emit("write", "", nil,
		[]ekv{{"fd", int64(fd)}, {"count", int64(len(buf))}},
		int64(n), err)
	return n, err
}

// Pwrite64 is pwrite64(2).
func (p *Proc) Pwrite64(fd int, buf []byte, off int64) (int, sys.Errno) {
	n, err := p.writeInner("pwrite64", fd, buf, off)
	p.emit("pwrite64", "", nil,
		[]ekv{{"fd", int64(fd)}, {"count", int64(len(buf))}, {"pos", off}},
		int64(n), err)
	return n, err
}

// Writev is writev(2).
func (p *Proc) Writev(fd int, iovs [][]byte) (int, sys.Errno) {
	total := 0
	for _, iov := range iovs {
		total += len(iov)
	}
	n, err := p.writevInner(fd, iovs)
	p.emit("writev", "", nil,
		[]ekv{{"fd", int64(fd)}, {"vlen", int64(len(iovs))}, {"count", int64(total)}},
		int64(n), err)
	return n, err
}

func (p *Proc) writeInner(name string, fd int, buf []byte, off int64) (int, sys.Errno) {
	if e, hit := p.checkFault(name); hit {
		return 0, e
	}
	f, e := p.writableFD(fd)
	if e != sys.OK {
		return 0, e
	}
	pos := off
	advance := false
	if off < 0 {
		pos = f.pos
		advance = true
		if f.flags&sys.O_APPEND != 0 {
			pos = f.ino.Size()
		}
	} else if f.flags&sys.O_APPEND != 0 {
		// pwrite on O_APPEND still appends on Linux (documented bug).
		pos = f.ino.Size()
	}
	nonblock := f.flags&sys.O_NONBLOCK != 0
	n, e := p.k.fs.WriteAt(p.cred, f.ino, buf, pos, nonblock)
	if e != sys.OK {
		return 0, e
	}
	// Linux moves the offset only when bytes were written: a zero-length
	// write on an O_APPEND descriptor leaves it where it was.
	if advance && n > 0 {
		f.pos = pos + int64(n)
	}
	return n, sys.OK
}

func (p *Proc) writevInner(fd int, iovs [][]byte) (int, sys.Errno) {
	if e, hit := p.checkFault("writev"); hit {
		return 0, e
	}
	if len(iovs) > 1024 {
		return 0, sys.EINVAL
	}
	f, e := p.writableFD(fd)
	if e != sys.OK {
		return 0, e
	}
	total := 0
	for _, iov := range iovs {
		pos := f.pos
		if f.flags&sys.O_APPEND != 0 {
			pos = f.ino.Size()
		}
		n, e := p.k.fs.WriteAt(p.cred, f.ino, iov, pos, f.flags&sys.O_NONBLOCK != 0)
		if e != sys.OK {
			if total > 0 {
				break
			}
			return 0, e
		}
		if n > 0 {
			f.pos = pos + int64(n)
		}
		total += n
	}
	return total, sys.OK
}

// Lseek is lseek(2) with SEEK_SET/CUR/END/DATA/HOLE.
func (p *Proc) Lseek(fd int, offset int64, whence int) (int64, sys.Errno) {
	pos, err := p.lseekInner(fd, offset, whence)
	p.emit("lseek", "", nil,
		[]ekv{{"fd", int64(fd)}, {"offset", offset}, {"whence", int64(whence)}},
		pos, err)
	return pos, err
}

func (p *Proc) lseekInner(fd int, offset int64, whence int) (int64, sys.Errno) {
	if e, hit := p.checkFault("lseek"); hit {
		return -1, e
	}
	f, e := p.lookupFD(fd)
	if e != sys.OK {
		return -1, e
	}
	size := f.ino.Size()
	var target int64
	switch whence {
	case sys.SEEK_SET:
		target = offset
	case sys.SEEK_CUR:
		target = f.pos + offset
	case sys.SEEK_END:
		target = size + offset
	case sys.SEEK_DATA:
		// The in-memory file is a single extent: data exists at any offset
		// below EOF.
		if offset >= size {
			return -1, sys.ENXIO
		}
		target = offset
	case sys.SEEK_HOLE:
		if offset >= size {
			return -1, sys.ENXIO
		}
		target = size
	default:
		return -1, sys.EINVAL
	}
	if target < 0 {
		return -1, sys.EINVAL
	}
	f.pos = target
	return target, sys.OK
}

// Ftruncate is ftruncate(2).
func (p *Proc) Ftruncate(fd int, length int64) sys.Errno {
	err := p.ftruncateInner(fd, length)
	p.emit("ftruncate", "", nil,
		[]ekv{{"fd", int64(fd)}, {"length", length}}, 0, err)
	return err
}

func (p *Proc) ftruncateInner(fd int, length int64) sys.Errno {
	if e, hit := p.checkFault("ftruncate"); hit {
		return e
	}
	f, e := p.writableFD(fd)
	if e != sys.OK {
		// ftruncate on a non-writable fd is EINVAL, not EBADF, when the
		// descriptor exists.
		if _, e := p.lookupFD(fd); e == sys.OK {
			return sys.EINVAL
		}
		return e
	}
	return p.k.fs.TruncateInode(p.cred, f.ino, length)
}

// Truncate is truncate(2).
func (p *Proc) Truncate(path string, length int64) sys.Errno {
	err := p.truncateInner(path, length)
	p.emit("truncate", path,
		[]eskv{{"path", path}},
		[]ekv{{"length", length}}, 0, err)
	return err
}

func (p *Proc) truncateInner(path string, length int64) sys.Errno {
	if e, hit := p.checkFault("truncate"); hit {
		return e
	}
	return p.k.fs.Truncate(p.cwd, p.cred, path, length)
}

// Fallocate is fallocate(2), supporting mode 0 and FALLOC_FL_KEEP_SIZE.
func (p *Proc) Fallocate(fd int, mode int, offset, length int64) sys.Errno {
	err := p.fallocateInner(fd, mode, offset, length)
	p.emit("fallocate", "", nil,
		[]ekv{{"fd", int64(fd)}, {"mode", int64(mode)}, {"offset", offset}, {"len", length}},
		0, err)
	return err
}

func (p *Proc) fallocateInner(fd int, mode int, offset, length int64) sys.Errno {
	if e, hit := p.checkFault("fallocate"); hit {
		return e
	}
	f, e := p.writableFD(fd)
	if e != sys.OK {
		return e
	}
	return p.k.fs.Fallocate(p.cred, f.ino, mode, offset, length)
}
