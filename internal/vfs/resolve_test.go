package vfs

import (
	"strings"
	"testing"

	"iocov/internal/raceflag"
	"iocov/internal/sys"
)

// walkFixture builds
//
//	/d/f    regular file
//	/d/sub  directory
//	/d/lf   -> f      (relative symlink to a file)
//	/d/ld   -> sub    (relative symlink to a directory)
//	/l      -> /d     (absolute symlink to a directory)
//	/lf     -> /d/lf  (symlink to a symlink)
func walkFixture(t *testing.T) *FS {
	t.Helper()
	fs := newFS(t)
	mustMkdir(t, fs, "/d")
	mustMkdir(t, fs, "/d/sub")
	mustCreate(t, fs, "/d/f")
	for _, l := range []struct{ target, path string }{
		{"f", "/d/lf"}, {"sub", "/d/ld"}, {"/d", "/l"}, {"/d/lf", "/lf"},
	} {
		if e := fs.Symlink(fs.Root(), Root, l.target, l.path); e != sys.OK {
			t.Fatalf("symlink %s: %v", l.path, e)
		}
	}
	return fs
}

// TestWalkTable pins path resolution: the errno and the inode it lands
// on, for slash runs, trailing slashes, dot entries, symlinks mid-path and
// last, relative paths against a directory fd, and over-long components.
func TestWalkTable(t *testing.T) {
	fs := walkFixture(t)
	root := fs.Root()
	d := root.children["d"]
	f, sub := d.children["f"], d.children["sub"]
	l, lf := root.children["l"], d.children["lf"]
	long := strings.Repeat("x", fs.Config().MaxNameLen+1)
	maxName := strings.Repeat("x", fs.Config().MaxNameLen)

	cases := []struct {
		path   string
		base   *Inode // nil: the root
		follow bool
		want   *Inode
		errno  sys.Errno
	}{
		{path: "/", want: root},
		{path: "//", want: root},
		{path: "////", want: root},
		{path: "", errno: sys.ENOENT},
		{path: "/d/", want: d},
		{path: "/d//sub//", want: sub},
		{path: "/d/f", want: f},
		{path: "/d/f/", errno: sys.ENOTDIR},
		{path: "/d/f/x", errno: sys.ENOTDIR},
		{path: "/d/missing", errno: sys.ENOENT},
		{path: "/d/.", want: d},
		{path: "/d/./f", want: f},
		{path: "/d/..", want: root},
		{path: "/..", want: root},
		{path: "/d/sub/../f", want: f},
		// Relative paths resolve against the base (a dirfd's directory).
		{path: ".", base: d, want: d},
		{path: "..", base: d, want: root},
		{path: "f", base: d, want: f},
		{path: "sub/../f", base: d, want: f},
		{path: "sub/", base: d, want: sub},
		{path: "f/", base: d, errno: sys.ENOTDIR},
		// A symlink as the last component: followed on request, and
		// always when the path ends in a slash.
		{path: "/l", follow: true, want: d},
		{path: "/l", want: l},
		{path: "/l/", want: d},
		{path: "/d/lf", follow: true, want: f},
		{path: "/d/lf", want: lf},
		{path: "/d/lf/", errno: sys.ENOTDIR},
		{path: "/d/ld/", want: sub},
		{path: "/lf", follow: true, want: f},
		{path: "lf", base: d, follow: true, want: f},
		// A symlink mid-path is always followed; ".." after it is the
		// target's parent, and the path's trailing slash still applies.
		{path: "/l/f", want: f},
		{path: "/l/f/", errno: sys.ENOTDIR},
		{path: "/l/sub/", want: sub},
		{path: "/l/ld/..", want: d},
		{path: "/l/ld/../f", want: f},
		{path: "/d/lf/x", errno: sys.ENOTDIR},
		{path: "/lf/", errno: sys.ENOTDIR},
		// Component length is checked per component, in walk order.
		{path: "/" + maxName, errno: sys.ENOENT},
		{path: "/" + long, errno: sys.ENAMETOOLONG},
		{path: "/d/" + long + "/f", errno: sys.ENAMETOOLONG},
		{path: "/l/" + long, errno: sys.ENAMETOOLONG},
		{path: "/d/f/" + long, errno: sys.ENAMETOOLONG},
	}
	for _, c := range cases {
		base := c.base
		if base == nil {
			base = root
		}
		got, e := fs.LookupInode(base, Root, c.path, c.follow)
		if e != c.errno || got != c.want {
			t.Errorf("LookupInode(%.40q, follow=%v) = inode %v, %v; want %v, %v",
				c.path, c.follow, inoNum(got), e, inoNum(c.want), c.errno)
		}
	}
}

func inoNum(ino *Inode) any {
	if ino == nil {
		return nil
	}
	return ino.ino
}

// TestTrailingSlashThroughSymlink is the regression test for the trailing
// slash a mid-path symlink expansion used to drop: open("/l/f/") with
// /l -> /d must fail with ENOTDIR exactly like open("/d/f/"), as on Linux.
func TestTrailingSlashThroughSymlink(t *testing.T) {
	fs := walkFixture(t)
	for _, p := range []string{"/d/f/", "/l/f/", "/d/lf/", "/l/lf/"} {
		if _, e := fs.OpenInode(fs.Root(), Root, p, sys.O_RDONLY, 0); e != sys.ENOTDIR {
			t.Errorf("open(%q) = %v, want ENOTDIR", p, e)
		}
	}
	for _, p := range []string{"/d/f", "/l/f", "/l/lf", "/l/sub/", "/l/ld/"} {
		if _, e := fs.OpenInode(fs.Root(), Root, p, sys.O_RDONLY, 0); e != sys.OK {
			t.Errorf("open(%q) = %v, want OK", p, e)
		}
	}
}

// TestLookupAllocs pins the in-place path walk: resolving a 4-component
// path builds no component list and allocates nothing.
func TestLookupAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	fs := newFS(t)
	mustMkdir(t, fs, "/mnt")
	mustMkdir(t, fs, "/mnt/test")
	mustMkdir(t, fs, "/mnt/test/dir")
	mustCreate(t, fs, "/mnt/test/dir/file")
	n := testing.AllocsPerRun(200, func() {
		if _, e := fs.Lookup(fs.Root(), Root, "/mnt/test/dir/file"); e != sys.OK {
			t.Fatalf("lookup: %v", e)
		}
	})
	if n != 0 {
		t.Fatalf("Lookup of a 4-component path allocates %.1f times, want 0", n)
	}
}
