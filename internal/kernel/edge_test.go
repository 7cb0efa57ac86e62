package kernel

import (
	"slices"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

func TestOPathDescriptor(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	p.Close(fd)
	pfd, e := p.Open("/f", sys.O_PATH, 0)
	if e != sys.OK {
		t.Fatalf("O_PATH open: %v", e)
	}
	// I/O through an O_PATH descriptor is EBADF.
	if _, e := p.Read(pfd, make([]byte, 4)); e != sys.EBADF {
		t.Errorf("read O_PATH = %v, want EBADF", e)
	}
	if _, e := p.Write(pfd, []byte("x")); e != sys.EBADF {
		t.Errorf("write O_PATH = %v, want EBADF", e)
	}
	if e := p.Fchmod(pfd, 0o600); e != sys.EBADF {
		t.Errorf("fchmod O_PATH = %v, want EBADF", e)
	}
	if e := p.Fsetxattr(pfd, "user.k", []byte("v"), 0); e != sys.EBADF {
		t.Errorf("fsetxattr O_PATH = %v, want EBADF", e)
	}
	if _, e := p.Fgetxattr(pfd, "user.k", make([]byte, 4)); e != sys.EBADF {
		t.Errorf("fgetxattr O_PATH = %v, want EBADF", e)
	}
	// But closing works.
	if e := p.Close(pfd); e != sys.OK {
		t.Errorf("close O_PATH = %v", e)
	}
	// O_PATH with incompatible extra flags is EINVAL.
	if _, e := p.Open("/f", sys.O_PATH|sys.O_TRUNC, 0); e != sys.EINVAL {
		t.Errorf("O_PATH|O_TRUNC = %v, want EINVAL", e)
	}
}

func TestOTruncOnReadOnlyFDDoesNotTruncate(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	p.Write(fd, []byte("content"))
	p.Close(fd)
	// O_TRUNC without write access mode: the simulated kernel leaves the
	// file alone (Linux behaviour here is unspecified).
	fd, e := p.Open("/f", sys.O_RDONLY|sys.O_TRUNC, 0)
	if e != sys.OK {
		t.Fatalf("open: %v", e)
	}
	p.Close(fd)
	if st, _ := p.Stat("/f"); st.Size != 7 {
		t.Errorf("size after O_RDONLY|O_TRUNC = %d, want 7", st.Size)
	}
}

func TestWriteZeroBytes(t *testing.T) {
	p, col := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	n, e := p.Write(fd, nil)
	if e != sys.OK || n != 0 {
		t.Errorf("zero write = %d,%v", n, e)
	}
	// The zero-size boundary partition is traced.
	last := col.Events()[col.Len()-1]
	if c, _ := last.Arg("count"); c != 0 {
		t.Errorf("traced count = %d", c)
	}
}

func TestPwriteOnAppendFD(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR|sys.O_APPEND, 0o644)
	p.Write(fd, []byte("0123456789"))
	// Linux documents that pwrite on O_APPEND appends regardless of offset.
	if _, e := p.Pwrite64(fd, []byte("XX"), 0); e != sys.OK {
		t.Fatal(e)
	}
	if st, _ := p.Stat("/f"); st.Size != 12 {
		t.Errorf("size = %d, want 12 (pwrite must append)", st.Size)
	}
}

func TestFaultAnySyscallRule(t *testing.T) {
	p, _ := newProc(t)
	p.k.Faults().Add(FaultRule{Errno: sys.EIO, Remaining: 2})
	if _, e := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644); e != sys.EIO {
		t.Errorf("first call = %v, want EIO", e)
	}
	if e := p.Mkdir("/d", 0o755); e != sys.EIO {
		t.Errorf("second call = %v, want EIO", e)
	}
	if e := p.Mkdir("/d", 0o755); e != sys.OK {
		t.Errorf("third call = %v, want OK", e)
	}
}

func TestFaultClear(t *testing.T) {
	p, _ := newProc(t)
	p.k.Faults().Add(FaultRule{Syscall: "mkdir", Errno: sys.ENOMEM})
	if e := p.Mkdir("/d", 0o755); e != sys.ENOMEM {
		t.Fatal("rule did not fire")
	}
	p.k.Faults().Clear()
	if e := p.Mkdir("/d", 0o755); e != sys.OK {
		t.Errorf("after clear = %v", e)
	}
}

func TestOpenFDsAndCloseAll(t *testing.T) {
	p, _ := newProc(t)
	for i := 0; i < 5; i++ {
		if _, e := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644); e != sys.OK {
			t.Fatal(e)
		}
	}
	if got := len(p.OpenFDs()); got != 5 {
		t.Errorf("open fds = %d", got)
	}
	// OpenFDs lists descriptors in ascending order, whatever order they
	// were taken in.
	for _, newfd := range []int{40, 1, 20} {
		if _, e := p.Dup2(3, newfd); e != sys.OK {
			t.Fatal(e)
		}
	}
	if e := p.Close(5); e != sys.OK {
		t.Fatal(e)
	}
	if got, want := p.OpenFDs(), []int{1, 3, 4, 6, 7, 20, 40}; !slices.Equal(got, want) {
		t.Errorf("OpenFDs = %v, want %v", got, want)
	}
	p.CloseAll()
	if got := len(p.OpenFDs()); got != 0 {
		t.Errorf("after CloseAll = %d", got)
	}
	// System-wide accounting was released: a tight kernel can open again.
	k2 := New(vfs.New(vfs.DefaultConfig()), Options{MaxSystemFiles: 1})
	p2 := k2.NewProc(ProcOptions{})
	fd, _ := p2.Open("/a", sys.O_CREAT|sys.O_WRONLY, 0o644)
	_ = fd
	p2.CloseAll()
	if _, e := p2.Open("/b", sys.O_CREAT|sys.O_WRONLY, 0o644); e != sys.OK {
		t.Errorf("open after CloseAll = %v", e)
	}
}

func TestUmaskReturnsPrevious(t *testing.T) {
	p, _ := newProc(t)
	if old := p.Umask(0o027); old != 0o022 {
		t.Errorf("default umask = %o, want 022", old)
	}
	if old := p.Umask(0); old != 0o027 {
		t.Errorf("second umask = %o", old)
	}
}

func TestSetCred(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/rootfile", sys.O_CREAT|sys.O_WRONLY, 0o600)
	p.Close(fd)
	p.SetCred(vfs.Cred{UID: 1000, GID: 1000})
	if p.Cred().UID != 1000 {
		t.Fatal("cred not set")
	}
	if _, e := p.Open("/rootfile", sys.O_RDONLY, 0); e != sys.EACCES {
		t.Errorf("user open of 0600 root file = %v, want EACCES", e)
	}
}

func TestReadvOnDirectory(t *testing.T) {
	p, _ := newProc(t)
	p.Mkdir("/d", 0o755)
	fd, _ := p.Open("/d", sys.O_RDONLY|sys.O_DIRECTORY, 0)
	if _, e := p.Readv(fd, [][]byte{make([]byte, 4)}); e != sys.EISDIR {
		t.Errorf("readv dir = %v, want EISDIR", e)
	}
	if _, e := p.Read(fd, make([]byte, 4)); e != sys.EISDIR {
		t.Errorf("read dir = %v, want EISDIR", e)
	}
}

func TestSyncFamilyEvents(t *testing.T) {
	p, col := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	p.Fsync(fd)
	p.Fdatasync(fd)
	p.Sync()
	if e := p.Fsync(999); e != sys.EBADF {
		t.Errorf("fsync bad fd = %v", e)
	}
	names := map[string]int{}
	for _, ev := range col.Events() {
		names[ev.Name]++
	}
	if names["fsync"] != 2 || names["fdatasync"] != 1 || names["sync"] != 1 {
		t.Errorf("sync family events = %v", names)
	}
}

func TestRenameUnlinkSymlinkEvents(t *testing.T) {
	p, col := newProc(t)
	fd, _ := p.Open("/a", sys.O_CREAT|sys.O_WRONLY, 0o644)
	p.Close(fd)
	if e := p.Symlink("/a", "/la"); e != sys.OK {
		t.Fatal(e)
	}
	if e := p.Link("/a", "/ha"); e != sys.OK {
		t.Fatal(e)
	}
	if e := p.Rename("/a", "/b"); e != sys.OK {
		t.Fatal(e)
	}
	if e := p.Unlink("/b"); e != sys.OK {
		t.Fatal(e)
	}
	if e := p.Rmdir("/nodir"); e != sys.ENOENT {
		t.Errorf("rmdir missing = %v", e)
	}
	var last trace.Event
	for _, ev := range col.Events() {
		if ev.Name == "rename" {
			last = ev
		}
	}
	if got, _ := last.Str("newname"); got != "/b" {
		t.Errorf("rename newname = %q", got)
	}
}

func TestLstatVsStat(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	p.Write(fd, []byte("abc"))
	p.Close(fd)
	p.Symlink("/f", "/lf")
	st, e := p.Stat("/lf")
	if e != sys.OK || st.Type != vfs.TypeFile || st.Size != 3 {
		t.Errorf("stat through link = %+v, %v", st, e)
	}
	lst, e := p.Lstat("/lf")
	if e != sys.OK || lst.Type != vfs.TypeSymlink {
		t.Errorf("lstat = %+v, %v", lst, e)
	}
}

func TestChdirAffectsOnlyThisProc(t *testing.T) {
	col := trace.NewCollector()
	k := New(vfs.New(vfs.DefaultConfig()), Options{Sink: col})
	p1 := k.NewProc(ProcOptions{})
	p2 := k.NewProc(ProcOptions{})
	p1.Mkdir("/d", 0o755)
	if e := p1.Chdir("/d"); e != sys.OK {
		t.Fatal(e)
	}
	fd, _ := p1.Open("x", sys.O_CREAT|sys.O_WRONLY, 0o644)
	p1.Close(fd)
	// p2's cwd is still the root.
	if _, e := p2.Stat("x"); e != sys.ENOENT {
		t.Errorf("p2 relative stat = %v, want ENOENT", e)
	}
	if _, e := p2.Stat("/d/x"); e != sys.OK {
		t.Errorf("p2 absolute stat = %v", e)
	}
}

func TestEventPIDs(t *testing.T) {
	col := trace.NewCollector()
	k := New(vfs.New(vfs.DefaultConfig()), Options{Sink: col})
	p1 := k.NewProc(ProcOptions{})
	p2 := k.NewProc(ProcOptions{})
	p1.Mkdir("/a", 0o755)
	p2.Mkdir("/b", 0o755)
	evs := col.Events()
	if evs[0].PID == evs[1].PID {
		t.Error("distinct procs share a pid")
	}
}
