package kernel

import (
	"bytes"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

func newProc(t *testing.T) (*Proc, *trace.Collector) {
	t.Helper()
	col := trace.NewCollector()
	k := New(vfs.New(vfs.DefaultConfig()), Options{Sink: col})
	return k.NewProc(ProcOptions{}), col
}

func TestOpenReadWriteClose(t *testing.T) {
	p, col := newProc(t)
	fd, e := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	if e != sys.OK {
		t.Fatalf("open: %v", e)
	}
	if fd != 3 {
		t.Errorf("first fd = %d, want 3", fd)
	}
	n, e := p.Write(fd, []byte("hello"))
	if e != sys.OK || n != 5 {
		t.Fatalf("write = %d,%v", n, e)
	}
	if pos, e := p.Lseek(fd, 0, sys.SEEK_SET); e != sys.OK || pos != 0 {
		t.Fatalf("lseek = %d,%v", pos, e)
	}
	buf := make([]byte, 8)
	n, e = p.Read(fd, buf)
	if e != sys.OK || string(buf[:n]) != "hello" {
		t.Fatalf("read = %q,%v", buf[:n], e)
	}
	if e := p.Close(fd); e != sys.OK {
		t.Fatalf("close: %v", e)
	}
	if e := p.Close(fd); e != sys.EBADF {
		t.Errorf("double close = %v, want EBADF", e)
	}
	// 7 events: open, write, lseek, read, close, close.
	if col.Len() != 6 {
		t.Errorf("traced %d events, want 6", col.Len())
	}
	ev := col.Events()[0]
	if ev.Name != "open" || ev.Path != "/f" || ev.Ret != 3 {
		t.Errorf("open event = %+v", ev)
	}
	if flags, _ := ev.Arg("flags"); flags != int64(sys.O_CREAT|sys.O_RDWR) {
		t.Errorf("flags arg = %d", flags)
	}
}

func TestFilePositionSemantics(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	p.Write(fd, []byte("abcdef"))
	// pread does not move the offset.
	buf := make([]byte, 2)
	n, e := p.Pread64(fd, buf, 1)
	if e != sys.OK || string(buf[:n]) != "bc" {
		t.Fatalf("pread = %q,%v", buf[:n], e)
	}
	if pos, _ := p.Lseek(fd, 0, sys.SEEK_CUR); pos != 6 {
		t.Errorf("pos after pread = %d, want 6", pos)
	}
	// pwrite does not move the offset either.
	if _, e := p.Pwrite64(fd, []byte("XY"), 0); e != sys.OK {
		t.Fatal(e)
	}
	if pos, _ := p.Lseek(fd, 0, sys.SEEK_CUR); pos != 6 {
		t.Errorf("pos after pwrite = %d, want 6", pos)
	}
	p.Lseek(fd, 0, sys.SEEK_SET)
	out := make([]byte, 6)
	p.Read(fd, out)
	if string(out) != "XYcdef" {
		t.Errorf("content = %q", out)
	}
}

func TestAppendMode(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	p.Write(fd, []byte("base"))
	p.Close(fd)
	fd, e := p.Open("/f", sys.O_WRONLY|sys.O_APPEND, 0)
	if e != sys.OK {
		t.Fatal(e)
	}
	// Seek back, then write: O_APPEND still appends.
	p.Lseek(fd, 0, sys.SEEK_SET)
	p.Write(fd, []byte("+tail"))
	p.Close(fd)
	fd, _ = p.Open("/f", sys.O_RDONLY, 0)
	buf := make([]byte, 16)
	n, _ := p.Read(fd, buf)
	if string(buf[:n]) != "base+tail" {
		t.Errorf("content = %q, want base+tail", buf[:n])
	}
}

func TestAccessModeEnforcement(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	buf := make([]byte, 4)
	if _, e := p.Read(fd, buf); e != sys.EBADF {
		t.Errorf("read on O_WRONLY = %v, want EBADF", e)
	}
	p.Close(fd)
	fd, _ = p.Open("/f", sys.O_RDONLY, 0)
	if _, e := p.Write(fd, []byte("x")); e != sys.EBADF {
		t.Errorf("write on O_RDONLY = %v, want EBADF", e)
	}
}

func TestInvalidOpenFlags(t *testing.T) {
	p, _ := newProc(t)
	if _, e := p.Open("/f", sys.O_ACCMODE, 0); e != sys.EINVAL {
		t.Errorf("accmode 3 = %v, want EINVAL", e)
	}
	if _, e := p.Open("/f", 1<<30, 0); e != sys.EINVAL {
		t.Errorf("unknown bit = %v, want EINVAL", e)
	}
	// O_TMPFILE without write access.
	if _, e := p.Open("/", sys.O_TMPFILE|sys.O_RDONLY, 0o600); e != sys.EINVAL {
		t.Errorf("O_TMPFILE rdonly = %v, want EINVAL", e)
	}
}

func TestOTmpfile(t *testing.T) {
	p, _ := newProc(t)
	if e := p.Mkdir("/d", 0o755); e != sys.OK {
		t.Fatal(e)
	}
	fd, e := p.Open("/d", sys.O_TMPFILE|sys.O_RDWR, 0o600)
	if e != sys.OK {
		t.Fatalf("O_TMPFILE: %v", e)
	}
	if n, e := p.Write(fd, []byte("anon")); e != sys.OK || n != 4 {
		t.Fatalf("write = %d,%v", n, e)
	}
	// The directory contains no visible entry.
	names, e := p.k.fs.ReadDir(p.k.fs.Root(), p.cred, "/d")
	if e != sys.OK || len(names) != 0 {
		t.Errorf("dir entries = %v, want empty", names)
	}
}

func TestOpenat(t *testing.T) {
	p, _ := newProc(t)
	p.Mkdir("/d", 0o755)
	dfd, e := p.Open("/d", sys.O_RDONLY|sys.O_DIRECTORY, 0)
	if e != sys.OK {
		t.Fatal(e)
	}
	fd, e := p.Openat(dfd, "f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	if e != sys.OK {
		t.Fatalf("openat: %v", e)
	}
	p.Close(fd)
	if _, e := p.Stat("/d/f"); e != sys.OK {
		t.Errorf("file not created under dirfd: %v", e)
	}
	// AT_FDCWD behaves like open relative to cwd.
	if e := p.Chdir("/d"); e != sys.OK {
		t.Fatal(e)
	}
	fd, e = p.Openat(sys.AT_FDCWD, "f", sys.O_RDONLY, 0)
	if e != sys.OK {
		t.Errorf("openat AT_FDCWD: %v", e)
	}
	p.Close(fd)
	// Bad dirfd.
	if _, e := p.Openat(999, "f", sys.O_RDONLY, 0); e != sys.EBADF {
		t.Errorf("bad dirfd = %v, want EBADF", e)
	}
	// dirfd that is not a directory.
	ffd, _ := p.Openat(sys.AT_FDCWD, "f", sys.O_RDONLY, 0)
	if _, e := p.Openat(ffd, "g", sys.O_RDONLY, 0); e != sys.ENOTDIR {
		t.Errorf("file dirfd = %v, want ENOTDIR", e)
	}
	// Absolute path ignores dirfd.
	if _, e := p.Openat(999, "/d/f", sys.O_RDONLY, 0); e != sys.OK {
		t.Errorf("absolute path with bad dirfd = %v, want OK", e)
	}
}

func TestCreat(t *testing.T) {
	p, col := newProc(t)
	fd, e := p.Creat("/f", 0o644)
	if e != sys.OK {
		t.Fatalf("creat: %v", e)
	}
	if _, e := p.Write(fd, []byte("x")); e != sys.OK {
		t.Errorf("creat fd not writable: %v", e)
	}
	buf := make([]byte, 1)
	if _, e := p.Read(fd, buf); e != sys.EBADF {
		t.Errorf("creat fd readable = %v, want EBADF", e)
	}
	ev := col.Events()[0]
	if ev.Name != "creat" {
		t.Errorf("event name = %s", ev.Name)
	}
}

func TestOpenat2(t *testing.T) {
	p, _ := newProc(t)
	p.Mkdir("/d", 0o755)
	fd, _ := p.Open("/d/f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	p.Close(fd)
	p.Symlink("/d/f", "/d/link")

	// Plain openat2 follows the symlink.
	fd, e := p.Openat2(sys.AT_FDCWD, "/d/link", OpenHow{Flags: sys.O_RDONLY})
	if e != sys.OK {
		t.Fatalf("openat2: %v", e)
	}
	p.Close(fd)
	// RESOLVE_NO_SYMLINKS rejects it.
	if _, e := p.Openat2(sys.AT_FDCWD, "/d/link", OpenHow{Flags: sys.O_RDONLY, Resolve: sys.RESOLVE_NO_SYMLINKS}); e != sys.ELOOP {
		t.Errorf("RESOLVE_NO_SYMLINKS = %v, want ELOOP", e)
	}
	// RESOLVE_BENEATH rejects absolute paths.
	if _, e := p.Openat2(sys.AT_FDCWD, "/d/f", OpenHow{Flags: sys.O_RDONLY, Resolve: sys.RESOLVE_BENEATH}); e != sys.EXDEV {
		t.Errorf("RESOLVE_BENEATH absolute = %v, want EXDEV", e)
	}
	// Unknown resolve bits.
	if _, e := p.Openat2(sys.AT_FDCWD, "/d/f", OpenHow{Flags: sys.O_RDONLY, Resolve: 0x4000}); e != sys.EINVAL {
		t.Errorf("bad resolve = %v, want EINVAL", e)
	}
}

func TestEMFILE(t *testing.T) {
	col := trace.NewCollector()
	k := New(vfs.New(vfs.DefaultConfig()), Options{Sink: col})
	p := k.NewProc(ProcOptions{MaxFDs: 2})
	fd1, e := p.Open("/a", sys.O_CREAT|sys.O_WRONLY, 0o644)
	if e != sys.OK {
		t.Fatal(e)
	}
	if _, e := p.Open("/b", sys.O_CREAT|sys.O_WRONLY, 0o644); e != sys.OK {
		t.Fatal(e)
	}
	if _, e := p.Open("/c", sys.O_CREAT|sys.O_WRONLY, 0o644); e != sys.EMFILE {
		t.Errorf("over per-proc limit = %v, want EMFILE", e)
	}
	p.Close(fd1)
	if _, e := p.Open("/c", sys.O_CREAT|sys.O_WRONLY, 0o644); e != sys.OK {
		t.Errorf("open after close = %v, want OK", e)
	}
}

func TestENFILE(t *testing.T) {
	k := New(vfs.New(vfs.DefaultConfig()), Options{MaxSystemFiles: 1})
	p1 := k.NewProc(ProcOptions{})
	p2 := k.NewProc(ProcOptions{})
	if _, e := p1.Open("/a", sys.O_CREAT|sys.O_WRONLY, 0o644); e != sys.OK {
		t.Fatal(e)
	}
	if _, e := p2.Open("/b", sys.O_CREAT|sys.O_WRONLY, 0o644); e != sys.ENFILE {
		t.Errorf("over system limit = %v, want ENFILE", e)
	}
}

func TestLowestFreeFD(t *testing.T) {
	p, _ := newProc(t)
	a, _ := p.Open("/a", sys.O_CREAT|sys.O_WRONLY, 0o644)
	b, _ := p.Open("/b", sys.O_CREAT|sys.O_WRONLY, 0o644)
	c, _ := p.Open("/c", sys.O_CREAT|sys.O_WRONLY, 0o644)
	if a != 3 || b != 4 || c != 5 {
		t.Fatalf("fds = %d,%d,%d", a, b, c)
	}
	p.Close(b)
	d, _ := p.Open("/d", sys.O_CREAT|sys.O_WRONLY, 0o644)
	if d != 4 {
		t.Errorf("reused fd = %d, want 4", d)
	}
}

func TestLseekWhence(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	p.Write(fd, make([]byte, 100))
	cases := []struct {
		off    int64
		whence int
		want   int64
		err    sys.Errno
	}{
		{10, sys.SEEK_SET, 10, sys.OK},
		{5, sys.SEEK_CUR, 15, sys.OK},
		{-10, sys.SEEK_END, 90, sys.OK},
		{200, sys.SEEK_SET, 200, sys.OK}, // seeking past EOF is fine
		{-1, sys.SEEK_SET, 0, sys.EINVAL},
		{0, 99, 0, sys.EINVAL},
		{50, sys.SEEK_DATA, 50, sys.OK},
		{150, sys.SEEK_DATA, 0, sys.ENXIO},
		{50, sys.SEEK_HOLE, 100, sys.OK},
		{150, sys.SEEK_HOLE, 0, sys.ENXIO},
	}
	for _, c := range cases {
		got, e := p.Lseek(fd, c.off, c.whence)
		if e != c.err {
			t.Errorf("lseek(%d,%d) err = %v, want %v", c.off, c.whence, e, c.err)
			continue
		}
		if e == sys.OK && got != c.want {
			t.Errorf("lseek(%d,%d) = %d, want %d", c.off, c.whence, got, c.want)
		}
	}
}

func TestReadvWritev(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	n, e := p.Writev(fd, [][]byte{[]byte("abc"), []byte("defg")})
	if e != sys.OK || n != 7 {
		t.Fatalf("writev = %d,%v", n, e)
	}
	p.Lseek(fd, 0, sys.SEEK_SET)
	a, b := make([]byte, 2), make([]byte, 10)
	n, e = p.Readv(fd, [][]byte{a, b})
	if e != sys.OK || n != 7 {
		t.Fatalf("readv = %d,%v", n, e)
	}
	if string(a) != "ab" || string(b[:5]) != "cdefg" {
		t.Errorf("readv buffers = %q %q", a, b[:5])
	}
	// Too many iovecs.
	many := make([][]byte, 1025)
	for i := range many {
		many[i] = make([]byte, 1)
	}
	if _, e := p.Readv(fd, many); e != sys.EINVAL {
		t.Errorf("1025 iovecs = %v, want EINVAL", e)
	}
}

func TestFtruncate(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	p.Write(fd, []byte("abcdef"))
	if e := p.Ftruncate(fd, 2); e != sys.OK {
		t.Fatal(e)
	}
	if st, _ := p.Stat("/f"); st.Size != 2 {
		t.Errorf("size = %d, want 2", st.Size)
	}
	p.Close(fd)
	// ftruncate on a read-only descriptor is EINVAL.
	fd, _ = p.Open("/f", sys.O_RDONLY, 0)
	if e := p.Ftruncate(fd, 0); e != sys.EINVAL {
		t.Errorf("ftruncate rdonly = %v, want EINVAL", e)
	}
	if e := p.Ftruncate(999, 0); e != sys.EBADF {
		t.Errorf("ftruncate bad fd = %v, want EBADF", e)
	}
}

func TestChdirFchdir(t *testing.T) {
	p, _ := newProc(t)
	p.Mkdir("/d", 0o755)
	if e := p.Chdir("/d"); e != sys.OK {
		t.Fatal(e)
	}
	fd, _ := p.Open("f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	p.Close(fd)
	if _, e := p.Stat("/d/f"); e != sys.OK {
		t.Errorf("relative create after chdir: %v", e)
	}
	if e := p.Chdir("/d/f"); e != sys.ENOTDIR {
		t.Errorf("chdir to file = %v, want ENOTDIR", e)
	}
	rootfd, _ := p.Open("/", sys.O_RDONLY|sys.O_DIRECTORY, 0)
	if e := p.Fchdir(rootfd); e != sys.OK {
		t.Fatal(e)
	}
	if _, e := p.Stat("d"); e != sys.OK {
		t.Errorf("relative stat after fchdir: %v", e)
	}
	ffd, _ := p.Open("/d/f", sys.O_RDONLY, 0)
	if e := p.Fchdir(ffd); e != sys.ENOTDIR {
		t.Errorf("fchdir to file = %v, want ENOTDIR", e)
	}
}

func TestUmask(t *testing.T) {
	p, _ := newProc(t)
	p.Umask(0o077)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o666)
	p.Close(fd)
	st, _ := p.Stat("/f")
	if st.Mode != 0o600 {
		t.Errorf("mode = %o, want 600", st.Mode)
	}
	p.Mkdir("/d", 0o777)
	st, _ = p.Stat("/d")
	if st.Mode != 0o700 {
		t.Errorf("dir mode = %o, want 700", st.Mode)
	}
}

func TestChmodFamily(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	if e := p.Chmod("/f", 0o640); e != sys.OK {
		t.Fatal(e)
	}
	if st, _ := p.Stat("/f"); st.Mode != 0o640 {
		t.Errorf("mode = %o", st.Mode)
	}
	if e := p.Fchmod(fd, 0o600); e != sys.OK {
		t.Fatal(e)
	}
	if st, _ := p.Stat("/f"); st.Mode != 0o600 {
		t.Errorf("mode = %o", st.Mode)
	}
	if e := p.Fchmodat(sys.AT_FDCWD, "/f", 0o755, 0); e != sys.OK {
		t.Fatal(e)
	}
	if e := p.Fchmodat(sys.AT_FDCWD, "/f", 0o755, sys.AT_SYMLINK_NOFOLLOW); e != sys.ENOTSUP {
		t.Errorf("AT_SYMLINK_NOFOLLOW = %v, want ENOTSUP", e)
	}
	if e := p.Fchmodat(sys.AT_FDCWD, "/f", 0o755, 0x9999); e != sys.EINVAL {
		t.Errorf("bad flags = %v, want EINVAL", e)
	}
	if e := p.Chmod("/missing", 0o644); e != sys.ENOENT {
		t.Errorf("chmod missing = %v, want ENOENT", e)
	}
}

func TestMkdirat(t *testing.T) {
	p, _ := newProc(t)
	p.Mkdir("/d", 0o755)
	dfd, _ := p.Open("/d", sys.O_RDONLY|sys.O_DIRECTORY, 0)
	if e := p.Mkdirat(dfd, "sub", 0o755); e != sys.OK {
		t.Fatal(e)
	}
	if st, e := p.Stat("/d/sub"); e != sys.OK || st.Type != vfs.TypeDir {
		t.Errorf("mkdirat result: %+v, %v", st, e)
	}
	if e := p.Mkdirat(999, "x", 0o755); e != sys.EBADF {
		t.Errorf("bad dirfd = %v, want EBADF", e)
	}
}

func TestXattrSyscalls(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	if e := p.Setxattr("/f", "user.a", []byte("1"), 0); e != sys.OK {
		t.Fatal(e)
	}
	if e := p.Fsetxattr(fd, "user.b", []byte("22"), 0); e != sys.OK {
		t.Fatal(e)
	}
	buf := make([]byte, 8)
	if n, e := p.Getxattr("/f", "user.b", buf); e != sys.OK || n != 2 {
		t.Errorf("getxattr = %d,%v", n, e)
	}
	if n, e := p.Fgetxattr(fd, "user.a", buf); e != sys.OK || n != 1 {
		t.Errorf("fgetxattr = %d,%v", n, e)
	}
	p.Symlink("/f", "/l")
	// lsetxattr on a symlink: user.* attrs are not allowed on symlinks in
	// Linux, but our model permits them; at minimum it must not follow.
	if e := p.Lsetxattr("/l", "user.c", []byte("3"), 0); e != sys.OK {
		t.Fatal(e)
	}
	if _, e := p.Getxattr("/f", "user.c", buf); e != sys.ENODATA {
		t.Errorf("target has link's attr: %v", e)
	}
	if n, e := p.Lgetxattr("/l", "user.c", buf); e != sys.OK || n != 1 {
		t.Errorf("lgetxattr = %d,%v", n, e)
	}
	if _, e := p.Fgetxattr(999, "user.a", buf); e != sys.EBADF {
		t.Errorf("fgetxattr bad fd = %v, want EBADF", e)
	}
}

func TestFaultInjection(t *testing.T) {
	p, col := newProc(t)
	p.k.Faults().Add(FaultRule{Syscall: "open", Errno: sys.ENOMEM, Remaining: 1})
	if _, e := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644); e != sys.ENOMEM {
		t.Fatalf("injected open = %v, want ENOMEM", e)
	}
	if _, e := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644); e != sys.OK {
		t.Errorf("post-injection open = %v, want OK", e)
	}
	ev := col.Events()[0]
	if ev.Err != sys.ENOMEM || ev.Ret != -int64(sys.ENOMEM) {
		t.Errorf("injected event = %+v", ev)
	}
}

func TestFaultEveryN(t *testing.T) {
	p, _ := newProc(t)
	rule := p.k.Faults().Add(FaultRule{Syscall: "write", Errno: sys.EINTR, EveryN: 3})
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	var failures int
	for i := 0; i < 9; i++ {
		if _, e := p.Write(fd, []byte("x")); e == sys.EINTR {
			failures++
		}
	}
	if failures != 3 {
		t.Errorf("EINTR count = %d, want 3", failures)
	}
	if rule.Fired() != 3 {
		t.Errorf("rule fired = %d, want 3", rule.Fired())
	}
}

func TestTraceEventSequence(t *testing.T) {
	p, col := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	p.Write(fd, bytes.Repeat([]byte("x"), 42))
	p.Close(fd)
	evs := col.Events()
	var last uint64
	for i, ev := range evs {
		if ev.Seq <= last {
			t.Errorf("event %d seq %d not increasing", i, ev.Seq)
		}
		last = ev.Seq
		if ev.PID != p.PID() {
			t.Errorf("event %d pid = %d", i, ev.PID)
		}
	}
	if c, _ := evs[1].Arg("count"); c != 42 {
		t.Errorf("write count = %d, want 42", c)
	}
}

// TestFaultFiredConcurrent pins FaultRule.Fired's synchronization: harness
// code polls Fired from other goroutines while syscalls inject, so Fired
// must read the counter under the owning set's lock that Check increments
// it under; a plain read races with the increment under -race.
func TestFaultFiredConcurrent(t *testing.T) {
	p, _ := newProc(t)
	rule := p.k.Faults().Add(FaultRule{Syscall: "write", Errno: sys.EINTR, EveryN: 2})
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	done := make(chan int64)
	go func() {
		var last int64
		for i := 0; i < 1000; i++ {
			last = rule.Fired()
		}
		done <- last
	}()
	for i := 0; i < 100; i++ {
		_, _ = p.Write(fd, []byte("x"))
	}
	last := <-done
	if last < 0 || last > 50 {
		t.Fatalf("concurrent Fired observed %d, want within 0..50", last)
	}
	if got := rule.Fired(); got != 50 {
		t.Errorf("final Fired = %d, want 50", got)
	}
}
