package vfs

import (
	"strings"

	"iocov/internal/sys"
)

// resolveOpts controls one path resolution.
type resolveOpts struct {
	// followLast dereferences a trailing symlink (open without O_NOFOLLOW).
	followLast bool
	// noSymlinks rejects any symlink in the path (openat2
	// RESOLVE_NO_SYMLINKS).
	noSymlinks bool
	// wantParent stops at the parent directory and returns the final
	// component, for create/mkdir/unlink-style operations.
	wantParent bool
}

// resolved is the outcome of a successful path walk.
type resolved struct {
	ino  *Inode
	dir  *Inode // parent directory (wantParent mode)
	name string // final component (wantParent mode)
}

// validatePath applies the global path-length limit.
func (fs *FS) validatePath(path string) sys.Errno {
	if len(path) > fs.cfg.MaxPathLen {
		return sys.ENAMETOOLONG
	}
	return sys.OK
}

// resolve walks path starting at base (the process cwd or an openat dirfd
// directory), enforcing permission, name-length, and symlink-depth rules.
// It must be called with fs.mu held.
func (fs *FS) resolve(base *Inode, cred Cred, path string, opt resolveOpts) (resolved, sys.Errno) {
	if e := fs.validatePath(path); e != sys.OK {
		return resolved{}, e
	}
	if path == "" {
		return resolved{}, sys.ENOENT
	}
	depth := 0
	return fs.walk(base, cred, path, opt, &depth)
}

// walk resolves path component by component, slicing each name out of
// path in place, so resolution allocates nothing. A symlink met
// mid-path is resolved on its own, as a directory, and the walk carries on
// from its target over the rest of path, so the original path's trailing
// slash still applies at the end.
func (fs *FS) walk(base *Inode, cred Cred, path string, opt resolveOpts, depth *int) (resolved, sys.Errno) {
	cur := base
	if strings.HasPrefix(path, "/") {
		cur = fs.root
	}
	trailingSlash := strings.HasSuffix(path, "/") && path != "/"

	rest := strings.TrimLeft(path, "/")
	if rest == "" {
		// Path was "/" (or equivalent).
		if opt.wantParent {
			return resolved{}, sys.EEXIST
		}
		return resolved{ino: cur}, sys.OK
	}

	for rest != "" {
		comp := rest
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			comp, rest = rest[:j], strings.TrimLeft(rest[j:], "/")
		} else {
			rest = ""
		}
		last := rest == ""
		if len(comp) > fs.cfg.MaxNameLen {
			return resolved{}, sys.ENAMETOOLONG
		}
		if cur.typ != TypeDir {
			return resolved{}, sys.ENOTDIR
		}
		if e := checkAccess(cur, cred, permExec); e != sys.OK {
			return resolved{}, e
		}

		var next *Inode
		switch comp {
		case ".":
			next = cur
		case "..":
			next = cur.parent
		default:
			next = cur.children[comp]
		}

		if last && opt.wantParent {
			if comp == "." || comp == ".." {
				return resolved{}, sys.EINVAL
			}
			if next != nil && next.typ == TypeSymlink && opt.followLast {
				// Creating through a dangling or existing symlink: follow it
				// so O_CREAT on a symlink to a file works like Linux.
				res, e := fs.followSymlink(cur, cred, next, opt, depth)
				if e != sys.OK {
					return resolved{}, e
				}
				return res, sys.OK
			}
			return resolved{dir: cur, name: comp, ino: next}, sys.OK
		}

		if next == nil {
			return resolved{}, sys.ENOENT
		}

		if next.typ == TypeSymlink {
			if opt.noSymlinks {
				return resolved{}, sys.ELOOP
			}
			if !last || opt.followLast || trailingSlash {
				*depth++
				if *depth > fs.cfg.MaxSymlinkDepth {
					return resolved{}, sys.ELOOP
				}
				// The target is followed through its own final symlink:
				// it is either a directory the walk continues in or the
				// path's (followed or slash-terminated) last component.
				res, e := fs.walk(cur, cred, next.target, resolveOpts{followLast: true}, depth)
				if e != sys.OK {
					return resolved{}, e
				}
				next = res.ino
			}
		}
		cur = next
	}

	if trailingSlash && cur.typ != TypeDir {
		return resolved{}, sys.ENOTDIR
	}
	return resolved{ino: cur}, sys.OK
}

// followSymlink resolves a trailing symlink encountered in wantParent mode.
func (fs *FS) followSymlink(dir *Inode, cred Cred, link *Inode, opt resolveOpts, depth *int) (resolved, sys.Errno) {
	*depth++
	if *depth > fs.cfg.MaxSymlinkDepth {
		return resolved{}, sys.ELOOP
	}
	return fs.walk(dir, cred, link.target, opt, depth)
}

// Lookup resolves path relative to base and returns the inode's metadata.
// It follows trailing symlinks, like stat(2).
func (fs *FS) Lookup(base *Inode, cred Cred, path string) (Stat, sys.Errno) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	res, e := fs.resolve(base, cred, path, resolveOpts{followLast: true})
	if e != sys.OK {
		return Stat{}, e
	}
	return fs.statLocked(res.ino), sys.OK
}

// LookupNoFollow is Lookup without trailing-symlink dereference (lstat).
func (fs *FS) LookupNoFollow(base *Inode, cred Cred, path string) (Stat, sys.Errno) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	res, e := fs.resolve(base, cred, path, resolveOpts{})
	if e != sys.OK {
		return Stat{}, e
	}
	return fs.statLocked(res.ino), sys.OK
}

// LookupInode resolves a path to the inode itself; the kernel layer uses it
// for chdir and the *at dirfd checks.
func (fs *FS) LookupInode(base *Inode, cred Cred, path string, follow bool) (*Inode, sys.Errno) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	res, e := fs.resolve(base, cred, path, resolveOpts{followLast: follow})
	if e != sys.OK {
		return nil, e
	}
	return res.ino, sys.OK
}
