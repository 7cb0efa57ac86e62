package kernel

import (
	"bytes"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

func TestDupSharesDescription(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	p.Write(fd, []byte("abcdef"))
	dup, e := p.Dup(fd)
	if e != sys.OK {
		t.Fatalf("dup: %v", e)
	}
	if dup == fd {
		t.Fatal("dup returned the same fd")
	}
	// The duplicate shares the file offset.
	if _, e := p.Lseek(fd, 2, sys.SEEK_SET); e != sys.OK {
		t.Fatal(e)
	}
	buf := make([]byte, 2)
	n, e := p.Read(dup, buf)
	if e != sys.OK || n != 2 || !bytes.Equal(buf, []byte("cd")) {
		t.Errorf("read via dup = %q,%d,%v", buf[:n], n, e)
	}
	// Closing the original leaves the duplicate usable.
	p.Close(fd)
	if _, e := p.Read(dup, buf); e != sys.OK {
		t.Errorf("read after closing original: %v", e)
	}
	if _, e := p.Dup(999); e != sys.EBADF {
		t.Errorf("dup bad fd = %v", e)
	}
}

func TestDup2Semantics(t *testing.T) {
	p, _ := newProc(t)
	a, _ := p.Open("/a", sys.O_CREAT|sys.O_RDWR, 0o644)
	b, _ := p.Open("/b", sys.O_CREAT|sys.O_RDWR, 0o644)
	p.Write(a, []byte("AAAA"))
	p.Write(b, []byte("BBBB"))
	// dup2 onto an open descriptor closes it implicitly.
	nfd, e := p.Dup2(a, b)
	if e != sys.OK || nfd != b {
		t.Fatalf("dup2 = %d,%v", nfd, e)
	}
	p.Lseek(b, 0, sys.SEEK_SET)
	buf := make([]byte, 4)
	p.Read(b, buf)
	if !bytes.Equal(buf, []byte("AAAA")) {
		t.Errorf("dup2 target reads %q, want AAAA", buf)
	}
	// dup2(fd, fd) validates and returns fd.
	if nfd, e := p.Dup2(a, a); e != sys.OK || nfd != a {
		t.Errorf("self dup2 = %d,%v", nfd, e)
	}
	if _, e := p.Dup2(999, 10); e != sys.EBADF {
		t.Errorf("dup2 bad src = %v", e)
	}
	if _, e := p.Dup2(a, -1); e != sys.EBADF {
		t.Errorf("dup2 negative target = %v", e)
	}
}

func TestFilterTracksDup(t *testing.T) {
	f, err := trace.NewFilter(`^/mnt/test(/|$)`)
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	k := New(vfs.New(vfs.DefaultConfig()), Options{Sink: &trace.FilteringSink{F: f, Next: col}})
	p := k.NewProc(ProcOptions{Cred: vfs.Root})
	p.Mkdir("/mnt", 0o755)
	p.Mkdir("/mnt/test", 0o755)
	fd, _ := p.Open("/mnt/test/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	dup, _ := p.Dup(fd)
	p.Write(dup, []byte("x")) // write via the duplicate must be kept
	p.Close(fd)
	p.Write(dup, []byte("y")) // still tracked after original closes
	var wroteViaDup int
	for _, ev := range col.Events() {
		if ev.Name == "write" {
			wroteViaDup++
		}
	}
	if wroteViaDup != 2 {
		t.Errorf("filter kept %d writes via dup, want 2", wroteViaDup)
	}
	// A dup of an untracked fd stays untracked.
	out, _ := p.Open("/elsewhere", sys.O_CREAT|sys.O_WRONLY, 0o644)
	odup, _ := p.Dup(out)
	p.Write(odup, []byte("z"))
	for _, ev := range col.Events() {
		if ev.Name == "write" {
			if fdArg, _ := ev.Arg("fd"); fdArg == int64(odup) {
				t.Error("write via foreign dup leaked through filter")
			}
		}
	}
}

func TestListRemoveXattr(t *testing.T) {
	p, _ := newProc(t)
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	p.Setxattr("/f", "user.b", []byte("2"), 0)
	p.Setxattr("/f", "user.a", []byte("1"), 0)
	// Size query then full read, NUL-separated and sorted.
	n, e := p.Listxattr("/f", nil)
	if e != sys.OK || n != len("user.a\x00user.b\x00") {
		t.Fatalf("size query = %d,%v", n, e)
	}
	buf := make([]byte, n)
	n, e = p.Listxattr("/f", buf)
	if e != sys.OK || string(buf[:n]) != "user.a\x00user.b\x00" {
		t.Fatalf("listxattr = %q,%v", buf[:n], e)
	}
	// Short buffer.
	if _, e := p.Listxattr("/f", buf[:3]); e != sys.ERANGE {
		t.Errorf("short listxattr = %v", e)
	}
	// Remove one; capacity is released.
	if e := p.Removexattr("/f", "user.a"); e != sys.OK {
		t.Fatal(e)
	}
	if e := p.Removexattr("/f", "user.a"); e != sys.ENODATA {
		t.Errorf("remove again = %v", e)
	}
	if e := p.Fremovexattr(fd, "user.b"); e != sys.OK {
		t.Errorf("fremovexattr = %v", e)
	}
	if n, _ := p.Listxattr("/f", nil); n != 0 {
		t.Errorf("names left after removals: %d bytes", n)
	}
	if e := p.Fremovexattr(999, "user.x"); e != sys.EBADF {
		t.Errorf("bad fd = %v", e)
	}
}

func TestRemovexattrReleasesCapacity(t *testing.T) {
	cfg := vfs.DefaultConfig()
	cfg.XattrCapacity = 200
	cfg.MaxXattrValue = 150
	k := New(vfs.New(cfg), Options{})
	p := k.NewProc(ProcOptions{Cred: vfs.Root})
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	if e := p.Fsetxattr(fd, "user.a", make([]byte, 150), 0); e != sys.OK {
		t.Fatal(e)
	}
	if e := p.Fsetxattr(fd, "user.b", make([]byte, 100), 0); e != sys.ENOSPC {
		t.Fatalf("expected ENOSPC, got %v", e)
	}
	if e := p.Fremovexattr(fd, "user.a"); e != sys.OK {
		t.Fatal(e)
	}
	if e := p.Fsetxattr(fd, "user.b", make([]byte, 100), 0); e != sys.OK {
		t.Errorf("set after remove = %v, capacity not released", e)
	}
}

func TestStatfs(t *testing.T) {
	p, _ := newProc(t)
	buf, e := p.Statfs("/")
	if e != sys.OK {
		t.Fatal(e)
	}
	if buf.Bsize != 4096 || buf.Blocks == 0 || buf.Bfree > buf.Blocks {
		t.Errorf("statfs = %+v", buf)
	}
	before := buf.Bfree
	fd, _ := p.Open("/f", sys.O_CREAT|sys.O_WRONLY, 0o644)
	p.Write(fd, make([]byte, 1<<20))
	buf, _ = p.Statfs("/")
	if buf.Bfree >= before {
		t.Errorf("free blocks did not drop: %d -> %d", before, buf.Bfree)
	}
	if _, e := p.Statfs("/missing"); e != sys.ENOENT {
		t.Errorf("statfs missing = %v", e)
	}
}

// TestDup2TargetAtLimit pins Linux's ksys_dup3 rule: a dup2 target at or
// above the descriptor limit is EBADF, and the table does not grow to
// reach it.
func TestDup2TargetAtLimit(t *testing.T) {
	k := New(vfs.New(vfs.DefaultConfig()), Options{})
	p := k.NewProc(ProcOptions{MaxFDs: 6})
	fd, e := p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
	if e != sys.OK || fd != 3 {
		t.Fatalf("open = %d, %v", fd, e)
	}
	for _, newfd := range []int{6, 7, 1<<20 - 1} {
		if _, e := p.Dup2(3, newfd); e != sys.EBADF {
			t.Errorf("dup2(3, %d) = %v, want EBADF", newfd, e)
		}
	}
	if len(p.fds) > 6 {
		t.Errorf("refused dup2s grew the table to %d slots", len(p.fds))
	}
	if nfd, e := p.Dup2(3, 5); e != sys.OK || nfd != 5 {
		t.Errorf("dup2(3, 5) = %d, %v, want 5", nfd, e)
	}
}
