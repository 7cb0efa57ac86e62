package vfs

import (
	"bytes"
	"strings"
	"testing"

	"iocov/internal/sys"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	return New(DefaultConfig())
}

func mustMkdir(t *testing.T, fs *FS, path string) {
	t.Helper()
	if e := fs.Mkdir(fs.Root(), Root, path, 0o755); e != sys.OK {
		t.Fatalf("mkdir %s: %v", path, e)
	}
}

func mustCreate(t *testing.T, fs *FS, path string) *Inode {
	t.Helper()
	res, e := fs.OpenInode(fs.Root(), Root, path, sys.O_CREAT|sys.O_RDWR, 0o644)
	if e != sys.OK {
		t.Fatalf("create %s: %v", path, e)
	}
	return res.Ino
}

func TestMkdirAndLookup(t *testing.T) {
	fs := newFS(t)
	mustMkdir(t, fs, "/a")
	mustMkdir(t, fs, "/a/b")
	st, e := fs.Lookup(fs.Root(), Root, "/a/b")
	if e != sys.OK {
		t.Fatalf("lookup: %v", e)
	}
	if st.Type != TypeDir {
		t.Errorf("type = %v, want dir", st.Type)
	}
}

func TestMkdirErrors(t *testing.T) {
	fs := newFS(t)
	mustMkdir(t, fs, "/a")
	if e := fs.Mkdir(fs.Root(), Root, "/a", 0o755); e != sys.EEXIST {
		t.Errorf("mkdir existing = %v, want EEXIST", e)
	}
	if e := fs.Mkdir(fs.Root(), Root, "/missing/b", 0o755); e != sys.ENOENT {
		t.Errorf("mkdir under missing = %v, want ENOENT", e)
	}
	mustCreate(t, fs, "/f")
	if e := fs.Mkdir(fs.Root(), Root, "/f/b", 0o755); e != sys.ENOTDIR {
		t.Errorf("mkdir under file = %v, want ENOTDIR", e)
	}
	long := strings.Repeat("x", 300)
	if e := fs.Mkdir(fs.Root(), Root, "/"+long, 0o755); e != sys.ENAMETOOLONG {
		t.Errorf("mkdir long name = %v, want ENAMETOOLONG", e)
	}
}

func TestOpenCreateExclusive(t *testing.T) {
	fs := newFS(t)
	if _, e := fs.OpenInode(fs.Root(), Root, "/f", sys.O_CREAT|sys.O_EXCL|sys.O_WRONLY, 0o644); e != sys.OK {
		t.Fatalf("create: %v", e)
	}
	if _, e := fs.OpenInode(fs.Root(), Root, "/f", sys.O_CREAT|sys.O_EXCL|sys.O_WRONLY, 0o644); e != sys.EEXIST {
		t.Errorf("re-create O_EXCL = %v, want EEXIST", e)
	}
	if _, e := fs.OpenInode(fs.Root(), Root, "/nope", sys.O_RDONLY, 0); e != sys.ENOENT {
		t.Errorf("open missing = %v, want ENOENT", e)
	}
}

func TestOpenDirectorySemantics(t *testing.T) {
	fs := newFS(t)
	mustMkdir(t, fs, "/d")
	mustCreate(t, fs, "/f")
	if _, e := fs.OpenInode(fs.Root(), Root, "/f", sys.O_RDONLY|sys.O_DIRECTORY, 0); e != sys.ENOTDIR {
		t.Errorf("O_DIRECTORY on file = %v, want ENOTDIR", e)
	}
	if _, e := fs.OpenInode(fs.Root(), Root, "/d", sys.O_WRONLY, 0); e != sys.EISDIR {
		t.Errorf("write-open dir = %v, want EISDIR", e)
	}
	if _, e := fs.OpenInode(fs.Root(), Root, "/d", sys.O_RDONLY, 0); e != sys.OK {
		t.Errorf("read-open dir = %v, want OK", e)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	fs := newFS(t)
	ino := mustCreate(t, fs, "/f")
	data := []byte("hello, filesystem")
	n, e := fs.WriteAt(Root, ino, data, 0, false)
	if e != sys.OK || n != len(data) {
		t.Fatalf("write = %d,%v", n, e)
	}
	buf := make([]byte, 64)
	n, e = fs.ReadAt(Root, ino, buf, 0)
	if e != sys.OK || n != len(data) {
		t.Fatalf("read = %d,%v", n, e)
	}
	if !bytes.Equal(buf[:n], data) {
		t.Errorf("read back %q, want %q", buf[:n], data)
	}
	// Sparse write: a hole reads as zeros.
	if _, e := fs.WriteAt(Root, ino, []byte("x"), 100, false); e != sys.OK {
		t.Fatalf("sparse write: %v", e)
	}
	n, e = fs.ReadAt(Root, ino, buf[:4], 50)
	if e != sys.OK || n != 4 {
		t.Fatalf("hole read = %d,%v", n, e)
	}
	if !bytes.Equal(buf[:4], []byte{0, 0, 0, 0}) {
		t.Errorf("hole = %v, want zeros", buf[:4])
	}
	if ino.Size() != 101 {
		t.Errorf("size = %d, want 101", ino.Size())
	}
}

func TestReadPastEOF(t *testing.T) {
	fs := newFS(t)
	ino := mustCreate(t, fs, "/f")
	buf := make([]byte, 8)
	n, e := fs.ReadAt(Root, ino, buf, 1000)
	if e != sys.OK || n != 0 {
		t.Errorf("read past EOF = %d,%v, want 0,OK", n, e)
	}
}

func TestENOSPC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityBytes = 64 * 1024
	fs := New(cfg)
	ino := mustCreate(t, fs, "/f")
	big := make([]byte, 128*1024)
	if _, e := fs.WriteAt(Root, ino, big, 0, false); e != sys.ENOSPC {
		t.Errorf("oversized write = %v, want ENOSPC", e)
	}
	// Failed write must not leak blocks.
	small := make([]byte, 4096)
	if _, e := fs.WriteAt(Root, ino, small, 0, false); e != sys.OK {
		t.Errorf("small write after ENOSPC = %v, want OK", e)
	}
}

func TestEDQUOT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QuotaBytes = 16 * 1024
	fs := New(cfg)
	user := Cred{UID: 1000, GID: 1000}
	res, e := fs.OpenInode(fs.Root(), Root, "/f", sys.O_CREAT|sys.O_RDWR, 0o666)
	if e != sys.OK {
		t.Fatal(e)
	}
	big := make([]byte, 32*1024)
	if _, e := fs.WriteAt(user, res.Ino, big, 0, false); e != sys.EDQUOT {
		t.Errorf("quota write = %v, want EDQUOT", e)
	}
	// Root is exempt from quota.
	if _, e := fs.WriteAt(Root, res.Ino, big, 0, false); e != sys.OK {
		t.Errorf("root write = %v, want OK", e)
	}
}

func TestEFBIG(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFileSize = 1 << 20
	fs := New(cfg)
	ino := mustCreate(t, fs, "/f")
	if _, e := fs.WriteAt(Root, ino, []byte("x"), 2<<20, false); e != sys.EFBIG {
		t.Errorf("write past max size = %v, want EFBIG", e)
	}
	if e := fs.TruncateInode(Root, ino, 2<<20); e != sys.EFBIG {
		t.Errorf("truncate past max size = %v, want EFBIG", e)
	}
}

func TestTruncate(t *testing.T) {
	fs := newFS(t)
	ino := mustCreate(t, fs, "/f")
	if _, e := fs.WriteAt(Root, ino, []byte("abcdef"), 0, false); e != sys.OK {
		t.Fatal(e)
	}
	if e := fs.Truncate(fs.Root(), Root, "/f", 3); e != sys.OK {
		t.Fatalf("shrink: %v", e)
	}
	if ino.Size() != 3 {
		t.Errorf("size = %d, want 3", ino.Size())
	}
	if e := fs.Truncate(fs.Root(), Root, "/f", 10); e != sys.OK {
		t.Fatalf("grow: %v", e)
	}
	buf := make([]byte, 10)
	n, _ := fs.ReadAt(Root, ino, buf, 0)
	if n != 10 || !bytes.Equal(buf[3:], make([]byte, 7)) {
		t.Errorf("grown tail not zeroed: %v", buf)
	}
	if e := fs.Truncate(fs.Root(), Root, "/f", -1); e != sys.EINVAL {
		t.Errorf("negative truncate = %v, want EINVAL", e)
	}
	mustMkdir(t, fs, "/d")
	if e := fs.Truncate(fs.Root(), Root, "/d", 0); e != sys.EISDIR {
		t.Errorf("truncate dir = %v, want EISDIR", e)
	}
}

func TestSymlinkResolution(t *testing.T) {
	fs := newFS(t)
	mustMkdir(t, fs, "/d")
	mustCreate(t, fs, "/d/f")
	if e := fs.Symlink(fs.Root(), Root, "/d", "/link"); e != sys.OK {
		t.Fatalf("symlink: %v", e)
	}
	if _, e := fs.Lookup(fs.Root(), Root, "/link/f"); e != sys.OK {
		t.Errorf("lookup through symlink: %v", e)
	}
	// Dangling symlink.
	if e := fs.Symlink(fs.Root(), Root, "/nowhere", "/dangle"); e != sys.OK {
		t.Fatal(e)
	}
	if _, e := fs.Lookup(fs.Root(), Root, "/dangle"); e != sys.ENOENT {
		t.Errorf("dangling lookup = %v, want ENOENT", e)
	}
	// lstat-style does not follow.
	st, e := fs.LookupNoFollow(fs.Root(), Root, "/dangle")
	if e != sys.OK || st.Type != TypeSymlink {
		t.Errorf("nofollow = %v,%v, want symlink,OK", st.Type, e)
	}
}

func TestELOOP(t *testing.T) {
	fs := newFS(t)
	if e := fs.Symlink(fs.Root(), Root, "/b", "/a"); e != sys.OK {
		t.Fatal(e)
	}
	if e := fs.Symlink(fs.Root(), Root, "/a", "/b"); e != sys.OK {
		t.Fatal(e)
	}
	if _, e := fs.Lookup(fs.Root(), Root, "/a"); e != sys.ELOOP {
		t.Errorf("cyclic lookup = %v, want ELOOP", e)
	}
	if _, e := fs.OpenInode(fs.Root(), Root, "/a", sys.O_RDONLY, 0); e != sys.ELOOP {
		t.Errorf("cyclic open = %v, want ELOOP", e)
	}
}

func TestONofollow(t *testing.T) {
	fs := newFS(t)
	mustCreate(t, fs, "/f")
	if e := fs.Symlink(fs.Root(), Root, "/f", "/lf"); e != sys.OK {
		t.Fatal(e)
	}
	if _, e := fs.OpenInode(fs.Root(), Root, "/lf", sys.O_RDONLY|sys.O_NOFOLLOW, 0); e != sys.ELOOP {
		t.Errorf("O_NOFOLLOW on symlink = %v, want ELOOP", e)
	}
	if _, e := fs.OpenInode(fs.Root(), Root, "/lf", sys.O_RDONLY, 0); e != sys.OK {
		t.Errorf("follow open = %v, want OK", e)
	}
}

func TestPermissions(t *testing.T) {
	fs := newFS(t)
	user := Cred{UID: 1000, GID: 100}
	other := Cred{UID: 2000, GID: 200}
	res, e := fs.OpenInode(fs.Root(), Root, "/f", sys.O_CREAT|sys.O_WRONLY, 0o600)
	if e != sys.OK {
		t.Fatal(e)
	}
	if e := fs.ChmodInode(Root, res.Ino, 0o600); e != sys.OK {
		t.Fatal(e)
	}
	// Make the file owned by user.
	res.Ino.uid, res.Ino.gid = user.UID, user.GID
	if _, e := fs.OpenInode(fs.Root(), user, "/f", sys.O_RDWR, 0); e != sys.OK {
		t.Errorf("owner open = %v, want OK", e)
	}
	if _, e := fs.OpenInode(fs.Root(), other, "/f", sys.O_RDONLY, 0); e != sys.EACCES {
		t.Errorf("other open = %v, want EACCES", e)
	}
	if e := fs.Chmod(fs.Root(), other, "/f", 0o777); e != sys.EPERM {
		t.Errorf("non-owner chmod = %v, want EPERM", e)
	}
	if e := fs.Chmod(fs.Root(), user, "/f", 0o644); e != sys.OK {
		t.Errorf("owner chmod = %v, want OK", e)
	}
	if _, e := fs.OpenInode(fs.Root(), other, "/f", sys.O_RDONLY, 0); e != sys.OK {
		t.Errorf("other open after chmod = %v, want OK", e)
	}
}

func TestReadOnlyMount(t *testing.T) {
	fs := newFS(t)
	mustCreate(t, fs, "/f")
	fs.SetReadOnly(true)
	if _, e := fs.OpenInode(fs.Root(), Root, "/g", sys.O_CREAT|sys.O_WRONLY, 0o644); e != sys.EROFS {
		t.Errorf("create on ro = %v, want EROFS", e)
	}
	if _, e := fs.OpenInode(fs.Root(), Root, "/f", sys.O_WRONLY, 0); e != sys.EROFS {
		t.Errorf("write-open on ro = %v, want EROFS", e)
	}
	if e := fs.Mkdir(fs.Root(), Root, "/d", 0o755); e != sys.EROFS {
		t.Errorf("mkdir on ro = %v, want EROFS", e)
	}
	if e := fs.Truncate(fs.Root(), Root, "/f", 0); e != sys.EROFS {
		t.Errorf("truncate on ro = %v, want EROFS", e)
	}
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.a", []byte("v"), 0); e != sys.EROFS {
		t.Errorf("setxattr on ro = %v, want EROFS", e)
	}
	// Reads still work.
	if _, e := fs.OpenInode(fs.Root(), Root, "/f", sys.O_RDONLY, 0); e != sys.OK {
		t.Errorf("read-open on ro = %v, want OK", e)
	}
}

func TestEOVERFLOWWithoutLargefile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityBytes = 4 << 30
	fs := New(cfg)
	ino := mustCreate(t, fs, "/big")
	// Grow to 2 GiB via truncate (sparse, cheap in blocks terms? truncate
	// charges blocks, so use a big-capacity fs).
	if e := fs.TruncateInode(Root, ino, largeFileLimit); e != sys.OK {
		t.Fatalf("grow: %v", e)
	}
	if _, e := fs.OpenInode(fs.Root(), Root, "/big", sys.O_RDONLY, 0); e != sys.EOVERFLOW {
		t.Errorf("open 2GiB without O_LARGEFILE = %v, want EOVERFLOW", e)
	}
	if _, e := fs.OpenInode(fs.Root(), Root, "/big", sys.O_RDONLY|sys.O_LARGEFILE, 0); e != sys.OK {
		t.Errorf("open with O_LARGEFILE = %v, want OK", e)
	}
}

func TestUnlinkRmdirRename(t *testing.T) {
	fs := newFS(t)
	mustMkdir(t, fs, "/d")
	mustCreate(t, fs, "/d/f")
	if e := fs.Rmdir(fs.Root(), Root, "/d"); e != sys.EBUSY {
		t.Errorf("rmdir non-empty = %v, want EBUSY", e)
	}
	if e := fs.Unlink(fs.Root(), Root, "/d"); e != sys.EISDIR {
		t.Errorf("unlink dir = %v, want EISDIR", e)
	}
	if e := fs.Rename(fs.Root(), Root, "/d/f", "/g"); e != sys.OK {
		t.Errorf("rename = %v", e)
	}
	if _, e := fs.Lookup(fs.Root(), Root, "/d/f"); e != sys.ENOENT {
		t.Errorf("old name still present: %v", e)
	}
	if e := fs.Rmdir(fs.Root(), Root, "/d"); e != sys.OK {
		t.Errorf("rmdir empty = %v", e)
	}
	if e := fs.Unlink(fs.Root(), Root, "/g"); e != sys.OK {
		t.Errorf("unlink = %v", e)
	}
	if e := fs.Unlink(fs.Root(), Root, "/g"); e != sys.ENOENT {
		t.Errorf("unlink again = %v, want ENOENT", e)
	}
}

func TestRenameIntoOwnSubtree(t *testing.T) {
	fs := newFS(t)
	mustMkdir(t, fs, "/a")
	mustMkdir(t, fs, "/a/b")
	if e := fs.Rename(fs.Root(), Root, "/a", "/a/b/c"); e != sys.EINVAL {
		t.Errorf("rename into subtree = %v, want EINVAL", e)
	}
}

func TestHardLinks(t *testing.T) {
	fs := newFS(t)
	ino := mustCreate(t, fs, "/f")
	if e := fs.Link(fs.Root(), Root, "/f", "/g"); e != sys.OK {
		t.Fatalf("link: %v", e)
	}
	if ino.Nlink() != 2 {
		t.Errorf("nlink = %d, want 2", ino.Nlink())
	}
	if e := fs.Unlink(fs.Root(), Root, "/f"); e != sys.OK {
		t.Fatal(e)
	}
	st, e := fs.Lookup(fs.Root(), Root, "/g")
	if e != sys.OK || st.Nlink != 1 {
		t.Errorf("after unlink: %+v, %v", st, e)
	}
	mustMkdir(t, fs, "/d")
	if e := fs.Link(fs.Root(), Root, "/d", "/dl"); e != sys.EPERM {
		t.Errorf("link dir = %v, want EPERM", e)
	}
}

// TestCloneKeepsHardLinks: a clone keeps a hard-linked file one inode
// under all its names, in one directory or across two, so a write through
// one name shows through the others and unlinking every name frees its
// blocks.
func TestCloneKeepsHardLinks(t *testing.T) {
	fs := newFS(t)
	mustMkdir(t, fs, "/d")
	base := fs.UsedBlocks()
	ino := mustCreate(t, fs, "/a")
	if _, e := fs.WriteAt(Root, ino, []byte("one"), 0, false); e != sys.OK {
		t.Fatal(e)
	}
	for _, name := range []string{"/b", "/d/c"} {
		if e := fs.Link(fs.Root(), Root, "/a", name); e != sys.OK {
			t.Fatalf("link %s: %v", name, e)
		}
	}
	c := fs.Clone()
	var inos []*Inode
	for _, name := range []string{"/a", "/b", "/d/c"} {
		ino, e := c.LookupInode(c.Root(), Root, name, true)
		if e != sys.OK {
			t.Fatalf("clone lookup %s: %v", name, e)
		}
		inos = append(inos, ino)
	}
	if inos[0] != inos[1] || inos[0] != inos[2] {
		t.Errorf("clone split the hard links into %p %p %p", inos[0], inos[1], inos[2])
	}
	if _, e := c.WriteAt(Root, inos[0], []byte("two"), 0, false); e != sys.OK {
		t.Fatal(e)
	}
	for _, name := range []string{"/b", "/d/c"} {
		if got, _ := c.ReadFileAt(name, 0, 3); string(got) != "two" {
			t.Errorf("clone %s reads %q after a write through /a, want %q", name, got, "two")
		}
	}
	if got, _ := fs.ReadFileAt("/b", 0, 3); string(got) != "one" {
		t.Errorf("original /b reads %q after a write to the clone, want %q", got, "one")
	}
	for _, name := range []string{"/a", "/b", "/d/c"} {
		if e := c.Unlink(c.Root(), Root, name); e != sys.OK {
			t.Fatalf("clone unlink %s: %v", name, e)
		}
	}
	if got := c.UsedBlocks(); got != base {
		t.Errorf("clone used blocks after unlinking every name = %d, want %d", got, base)
	}
}

func TestXattrBasics(t *testing.T) {
	fs := newFS(t)
	mustCreate(t, fs, "/f")
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.key", []byte("value"), 0); e != sys.OK {
		t.Fatalf("setxattr: %v", e)
	}
	buf := make([]byte, 16)
	n, e := fs.Getxattr(fs.Root(), Root, "/f", "user.key", buf)
	if e != sys.OK || string(buf[:n]) != "value" {
		t.Fatalf("getxattr = %q,%v", buf[:n], e)
	}
	// Size query with empty buffer.
	n, e = fs.Getxattr(fs.Root(), Root, "/f", "user.key", nil)
	if e != sys.OK || n != 5 {
		t.Errorf("size query = %d,%v, want 5,OK", n, e)
	}
	// Short buffer.
	if _, e := fs.Getxattr(fs.Root(), Root, "/f", "user.key", buf[:2]); e != sys.ERANGE {
		t.Errorf("short buffer = %v, want ERANGE", e)
	}
	// Missing attribute.
	if _, e := fs.Getxattr(fs.Root(), Root, "/f", "user.none", buf); e != sys.ENODATA {
		t.Errorf("missing = %v, want ENODATA", e)
	}
	// Create/replace flags.
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.key", []byte("v2"), sys.XATTR_CREATE); e != sys.EEXIST {
		t.Errorf("XATTR_CREATE on existing = %v, want EEXIST", e)
	}
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.new", []byte("v"), sys.XATTR_REPLACE); e != sys.ENODATA {
		t.Errorf("XATTR_REPLACE on missing = %v, want ENODATA", e)
	}
	// Bad namespace.
	if e := fs.Setxattr(fs.Root(), Root, "/f", "bogus.key", []byte("v"), 0); e != sys.ENOTSUP {
		t.Errorf("bad namespace = %v, want ENOTSUP", e)
	}
	// trusted.* needs root.
	user := Cred{UID: 1000, GID: 100}
	if e := fs.Setxattr(fs.Root(), user, "/f", "trusted.k", []byte("v"), 0); e != sys.EPERM {
		t.Errorf("trusted as user = %v, want EPERM", e)
	}
	// Invalid flags.
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.k", []byte("v"), 7); e != sys.EINVAL {
		t.Errorf("bad flags = %v, want EINVAL", e)
	}
}

func TestXattrLimits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxXattrValue = 100
	cfg.XattrCapacity = 200
	fs := New(cfg)
	mustCreate(t, fs, "/f")
	big := make([]byte, 101)
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.a", big, 0); e != sys.E2BIG {
		t.Errorf("oversized value = %v, want E2BIG", e)
	}
	ok := make([]byte, 90)
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.a", ok, 0); e != sys.OK {
		t.Errorf("first value = %v, want OK", e)
	}
	// Second attribute exceeds per-inode capacity: 90+6+16 + 90+6+16 > 200.
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.b", ok, 0); e != sys.ENOSPC {
		t.Errorf("capacity overflow = %v, want ENOSPC", e)
	}
	if len(fs.CheckConsistency()) != 0 {
		t.Errorf("correct fs reported corruption: %v", fs.CheckConsistency())
	}
}

func TestXattrOverflowBug(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxXattrValue = 100
	cfg.XattrCapacity = 200
	cfg.Bugs.XattrSizeOverflow = true
	fs := New(cfg)
	mustCreate(t, fs, "/f")
	ok := make([]byte, 90)
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.a", ok, 0); e != sys.OK {
		t.Fatal(e)
	}
	// Ordinary over-capacity values are still rejected under the bug...
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.b", ok, 0); e != sys.ENOSPC {
		t.Fatalf("non-max over-capacity = %v, want ENOSPC", e)
	}
	// ...but a maximum-size value slips through and corrupts the inode —
	// Figure 1's exact trigger.
	maxVal := make([]byte, cfg.MaxXattrValue)
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.c", maxVal, 0); e != sys.OK {
		t.Fatalf("max-size buggy path returned %v, want silent OK", e)
	}
	if len(fs.CheckConsistency()) == 0 {
		t.Error("expected corruption record from injected bug")
	}
}

func TestSymlinkXattrNoFollow(t *testing.T) {
	fs := newFS(t)
	mustCreate(t, fs, "/f")
	if e := fs.Symlink(fs.Root(), Root, "/f", "/l"); e != sys.OK {
		t.Fatal(e)
	}
	if e := fs.Setxattr(fs.Root(), Root, "/l", "user.k", []byte("v"), 0); e != sys.OK {
		t.Fatal(e)
	}
	// Following set put the attribute on the target, not the link.
	buf := make([]byte, 8)
	if _, e := fs.GetxattrNoFollow(fs.Root(), Root, "/l", "user.k", buf); e != sys.ENODATA {
		t.Errorf("link itself should have no attr, got %v", e)
	}
	if _, e := fs.Getxattr(fs.Root(), Root, "/f", "user.k", buf); e != sys.OK {
		t.Errorf("target missing attr: %v", e)
	}
}

func TestReadDir(t *testing.T) {
	fs := newFS(t)
	mustMkdir(t, fs, "/d")
	mustCreate(t, fs, "/d/b")
	mustCreate(t, fs, "/d/a")
	names, e := fs.ReadDir(fs.Root(), Root, "/d")
	if e != sys.OK {
		t.Fatal(e)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v, want [a b]", names)
	}
	if _, e := fs.ReadDir(fs.Root(), Root, "/d/a"); e != sys.ENOTDIR {
		t.Errorf("readdir file = %v, want ENOTDIR", e)
	}
}

func TestDotDotResolution(t *testing.T) {
	fs := newFS(t)
	mustMkdir(t, fs, "/a")
	mustMkdir(t, fs, "/a/b")
	mustCreate(t, fs, "/top")
	if _, e := fs.Lookup(fs.Root(), Root, "/a/b/../../top"); e != sys.OK {
		t.Errorf("dotdot lookup: %v", e)
	}
	// .. at root stays at root.
	if _, e := fs.Lookup(fs.Root(), Root, "/../top"); e != sys.OK {
		t.Errorf("root dotdot: %v", e)
	}
}

func TestPathTooLong(t *testing.T) {
	fs := newFS(t)
	long := "/" + strings.Repeat("a/", 4096)
	if _, e := fs.Lookup(fs.Root(), Root, long); e != sys.ENAMETOOLONG {
		t.Errorf("long path = %v, want ENAMETOOLONG", e)
	}
}

func TestBadBlockEIO(t *testing.T) {
	fs := newFS(t)
	ino := mustCreate(t, fs, "/f")
	if _, e := fs.WriteAt(Root, ino, []byte("data"), 0, false); e != sys.OK {
		t.Fatal(e)
	}
	if e := fs.MarkBadBlock(fs.Root(), Root, "/f"); e != sys.OK {
		t.Fatal(e)
	}
	buf := make([]byte, 4)
	if _, e := fs.ReadAt(Root, ino, buf, 0); e != sys.EIO {
		t.Errorf("bad block read = %v, want EIO", e)
	}
}

func TestGetBranchBug(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bugs.GetBranchErrno = true
	fs := New(cfg)
	ino := mustCreate(t, fs, "/f")
	if _, e := fs.WriteAt(Root, ino, []byte("data"), 0, false); e != sys.OK {
		t.Fatal(e)
	}
	if e := fs.MarkBadBlock(fs.Root(), Root, "/f"); e != sys.OK {
		t.Fatal(e)
	}
	buf := make([]byte, 4)
	n, e := fs.ReadAt(Root, ino, buf, 0)
	if e != sys.OK || n != 0 {
		t.Errorf("buggy read = %d,%v, want 0,OK", n, e)
	}
	if len(fs.CheckConsistency()) == 0 {
		t.Error("expected corruption record")
	}
}

func TestTruncateExpandBug(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bugs.TruncateExpandError = true
	fs := New(cfg)
	ino := mustCreate(t, fs, "/f")
	// Non-boundary expansion works.
	if e := fs.TruncateInode(Root, ino, 5000); e != sys.OK {
		t.Fatal(e)
	}
	if ino.Size() != 5000 {
		t.Errorf("size = %d, want 5000", ino.Size())
	}
	// Block-aligned expansion stops short under the bug.
	if e := fs.TruncateInode(Root, ino, 8192); e != sys.OK {
		t.Fatal(e)
	}
	if ino.Size() != 8192-4096 {
		t.Errorf("buggy size = %d, want %d", ino.Size(), 8192-4096)
	}
	if len(fs.CheckConsistency()) == 0 {
		t.Error("expected corruption record")
	}
}

func TestNowaitWriteBug(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bugs.NowaitWriteENOSPC = true
	fs := New(cfg)
	ino := mustCreate(t, fs, "/f")
	// Allocating write under NOWAIT wrongly fails.
	if _, e := fs.WriteAt(Root, ino, make([]byte, 8192), 0, true); e != sys.ENOSPC {
		t.Errorf("buggy nowait write = %v, want ENOSPC", e)
	}
	// Same write without NOWAIT succeeds — the input-dependent bug.
	if _, e := fs.WriteAt(Root, ino, make([]byte, 8192), 0, false); e != sys.OK {
		t.Errorf("blocking write = %v, want OK", e)
	}
	// Overwrite of existing blocks under NOWAIT also succeeds.
	if _, e := fs.WriteAt(Root, ino, []byte("x"), 0, true); e != sys.OK {
		t.Errorf("non-allocating nowait write = %v, want OK", e)
	}
}

func TestRegionTracking(t *testing.T) {
	fs := newFS(t)
	regions := NewRegionSet()
	fs.AttachRegions(regions)
	mustCreate(t, fs, "/f")
	if !regions.Covered("do_sys_open") {
		t.Error("do_sys_open not covered")
	}
	if !regions.Covered("generic_file_open") {
		t.Error("generic_file_open not covered")
	}
	if regions.Covered("vfs_setxattr") {
		t.Error("vfs_setxattr covered without setxattr call")
	}
	if e := fs.Setxattr(fs.Root(), Root, "/f", "user.k", []byte("v"), 0); e != sys.OK {
		t.Fatal(e)
	}
	if !regions.Covered("ext4_xattr_ibody_set") {
		t.Error("ext4_xattr_ibody_set not covered")
	}
}

func TestBlockAccounting(t *testing.T) {
	fs := newFS(t)
	before := fs.UsedBlocks()
	ino := mustCreate(t, fs, "/f")
	if _, e := fs.WriteAt(Root, ino, make([]byte, 10000), 0, false); e != sys.OK {
		t.Fatal(e)
	}
	// 10000 bytes = 3 blocks, +1 metadata block for the create.
	if got := fs.UsedBlocks() - before; got != 4 {
		t.Errorf("used blocks delta = %d, want 4", got)
	}
	if e := fs.Unlink(fs.Root(), Root, "/f"); e != sys.OK {
		t.Fatal(e)
	}
	if got := fs.UsedBlocks(); got != before {
		t.Errorf("blocks after unlink = %d, want %d", got, before)
	}
}

// TestConfigRemountRace pins the FS and RegionSet locking: a remount and a
// region hit on one goroutine run against Config and Count on another, so
// the -race lane catches an unlocked cfg read or region-map access.
func TestConfigRemountRace(t *testing.T) {
	fs := newFS(t)
	regions := NewRegionSet()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			fs.SetReadOnly(i%2 == 0)
			regions.Hit("remount")
		}
	}()
	for i := 0; i < 1000; i++ {
		_ = fs.Config()
		_ = regions.Count("remount")
	}
	<-done
	if got := regions.Count("remount"); got != 1000 {
		t.Errorf("region hits = %d, want 1000", got)
	}
	fs.SetReadOnly(true)
	if !fs.Config().ReadOnly {
		t.Fatal("Config did not observe SetReadOnly(true)")
	}
	fs.SetReadOnly(false)
	if fs.Config().ReadOnly {
		t.Fatal("Config did not observe SetReadOnly(false)")
	}
}
