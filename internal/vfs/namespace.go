package vfs

import (
	"sort"

	"iocov/internal/sys"
)

// Mkdir creates a directory at path with the given permission bits.
func (fs *FS) Mkdir(base *Inode, cred Cred, path string, mode uint32) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.hitRegion("vfs_mkdir")
	if fs.cfg.ReadOnly {
		return sys.EROFS
	}
	res, e := fs.resolve(base, cred, path, resolveOpts{wantParent: true})
	if e != sys.OK {
		return e
	}
	if res.ino != nil {
		return sys.EEXIST
	}
	if e := checkAccess(res.dir, cred, permWrite|permExec); e != sys.OK {
		return e
	}
	if e := fs.chargeBlocks(cred, 1); e != sys.OK {
		return e
	}
	child := fs.newInode(TypeDir, mode, cred)
	child.parent = res.dir
	res.dir.children[res.name] = child
	res.dir.nlink++
	fs.stampData(res.dir)
	return sys.OK
}

// Symlink creates a symbolic link at linkpath pointing to target.
func (fs *FS) Symlink(base *Inode, cred Cred, target, linkpath string) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cfg.ReadOnly {
		return sys.EROFS
	}
	if target == "" {
		return sys.ENOENT
	}
	if len(target) > fs.cfg.MaxPathLen {
		return sys.ENAMETOOLONG
	}
	res, e := fs.resolve(base, cred, linkpath, resolveOpts{wantParent: true})
	if e != sys.OK {
		return e
	}
	if res.ino != nil {
		return sys.EEXIST
	}
	if e := checkAccess(res.dir, cred, permWrite|permExec); e != sys.OK {
		return e
	}
	if e := fs.chargeBlocks(cred, 1); e != sys.OK {
		return e
	}
	link := fs.newInode(TypeSymlink, 0o777, cred)
	link.target = target
	link.parent = res.dir
	res.dir.children[res.name] = link
	fs.stampData(res.dir)
	return sys.OK
}

// Link creates a hard link newpath referring to the file at oldpath.
func (fs *FS) Link(base *Inode, cred Cred, oldpath, newpath string) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cfg.ReadOnly {
		return sys.EROFS
	}
	oldRes, e := fs.resolve(base, cred, oldpath, resolveOpts{})
	if e != sys.OK {
		return e
	}
	if oldRes.ino.typ == TypeDir {
		return sys.EPERM
	}
	newRes, e := fs.resolve(base, cred, newpath, resolveOpts{wantParent: true})
	if e != sys.OK {
		return e
	}
	if newRes.ino != nil {
		return sys.EEXIST
	}
	if e := checkAccess(newRes.dir, cred, permWrite|permExec); e != sys.OK {
		return e
	}
	oldRes.ino.nlink++
	fs.stampMeta(oldRes.ino) // link count change is a metadata change
	newRes.dir.children[newRes.name] = oldRes.ino
	fs.stampData(newRes.dir)
	return sys.OK
}

// Unlink removes the directory entry at path.
func (fs *FS) Unlink(base *Inode, cred Cred, path string) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cfg.ReadOnly {
		return sys.EROFS
	}
	res, e := fs.resolve(base, cred, path, resolveOpts{wantParent: true})
	if e != sys.OK {
		return e
	}
	if res.ino == nil {
		return sys.ENOENT
	}
	if res.ino.typ == TypeDir {
		return sys.EISDIR
	}
	if e := checkAccess(res.dir, cred, permWrite|permExec); e != sys.OK {
		return e
	}
	delete(res.dir.children, res.name)
	fs.stampData(res.dir)
	res.ino.nlink--
	if res.ino.nlink <= 0 {
		fs.releaseInode(cred, res.ino)
	}
	return sys.OK
}

// Rmdir removes the empty directory at path.
func (fs *FS) Rmdir(base *Inode, cred Cred, path string) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cfg.ReadOnly {
		return sys.EROFS
	}
	res, e := fs.resolve(base, cred, path, resolveOpts{wantParent: true})
	if e != sys.OK {
		return e
	}
	if res.ino == nil {
		return sys.ENOENT
	}
	if res.ino.typ != TypeDir {
		return sys.ENOTDIR
	}
	if len(res.ino.children) > 0 {
		return sys.EBUSY // directory not empty is ENOTEMPTY; modelled as busy resource
	}
	if res.ino == fs.root {
		return sys.EBUSY
	}
	if e := checkAccess(res.dir, cred, permWrite|permExec); e != sys.OK {
		return e
	}
	delete(res.dir.children, res.name)
	res.dir.nlink--
	fs.stampData(res.dir)
	_ = fs.chargeBlocks(cred, -1)
	return sys.OK
}

// Rename atomically moves oldpath to newpath, replacing a compatible target.
func (fs *FS) Rename(base *Inode, cred Cred, oldpath, newpath string) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cfg.ReadOnly {
		return sys.EROFS
	}
	oldRes, e := fs.resolve(base, cred, oldpath, resolveOpts{wantParent: true})
	if e != sys.OK {
		return e
	}
	if oldRes.ino == nil {
		return sys.ENOENT
	}
	newRes, e := fs.resolve(base, cred, newpath, resolveOpts{wantParent: true})
	if e != sys.OK {
		return e
	}
	if e := checkAccess(oldRes.dir, cred, permWrite|permExec); e != sys.OK {
		return e
	}
	if e := checkAccess(newRes.dir, cred, permWrite|permExec); e != sys.OK {
		return e
	}
	if newRes.ino != nil {
		if newRes.ino == oldRes.ino {
			return sys.OK
		}
		if newRes.ino.typ == TypeDir && oldRes.ino.typ != TypeDir {
			return sys.EISDIR
		}
		if newRes.ino.typ != TypeDir && oldRes.ino.typ == TypeDir {
			return sys.ENOTDIR
		}
		if newRes.ino.typ == TypeDir && len(newRes.ino.children) > 0 {
			return sys.EBUSY
		}
	}
	// Refuse to move a directory into its own subtree.
	if oldRes.ino.typ == TypeDir {
		for d := newRes.dir; ; d = d.parent {
			if d == oldRes.ino {
				return sys.EINVAL
			}
			if d == fs.root {
				break
			}
		}
	}
	delete(oldRes.dir.children, oldRes.name)
	if oldRes.ino.typ == TypeDir {
		oldRes.dir.nlink--
		newRes.dir.nlink++
		oldRes.ino.parent = newRes.dir
	}
	if newRes.ino != nil {
		newRes.ino.nlink--
		if newRes.ino.nlink <= 0 {
			fs.releaseInode(cred, newRes.ino)
		}
	}
	newRes.dir.children[newRes.name] = oldRes.ino
	fs.stampData(oldRes.dir)
	fs.stampData(newRes.dir)
	return sys.OK
}

// Chmod changes the permission bits of the object at path. Only the owner or
// root may change a mode (EPERM otherwise).
func (fs *FS) Chmod(base *Inode, cred Cred, path string, mode uint32) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	res, e := fs.resolve(base, cred, path, resolveOpts{followLast: true})
	if e != sys.OK {
		return e
	}
	return fs.chmodLocked(cred, res.ino, mode)
}

// ChmodInode is fchmod's filesystem half.
func (fs *FS) ChmodInode(cred Cred, ino *Inode, mode uint32) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.chmodLocked(cred, ino, mode)
}

func (fs *FS) chmodLocked(cred Cred, ino *Inode, mode uint32) sys.Errno {
	fs.hitRegion("chmod_common")
	if fs.cfg.ReadOnly {
		return sys.EROFS
	}
	if cred.UID != 0 && cred.UID != ino.uid {
		return sys.EPERM
	}
	ino.mode = mode & sys.PermMask
	fs.stampMeta(ino)
	return sys.OK
}

// ReadDir lists the names in the directory at path, sorted.
func (fs *FS) ReadDir(base *Inode, cred Cred, path string) ([]string, sys.Errno) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	res, e := fs.resolve(base, cred, path, resolveOpts{followLast: true})
	if e != sys.OK {
		return nil, e
	}
	if res.ino.typ != TypeDir {
		return nil, sys.ENOTDIR
	}
	if e := checkAccess(res.ino, cred, permRead); e != sys.OK {
		return nil, e
	}
	names := make([]string, 0, len(res.ino.children))
	for name := range res.ino.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, sys.OK
}

// releaseInode returns an unlinked inode's allocated blocks (plus its
// metadata block) to the allocator.
func (fs *FS) releaseInode(cred Cred, ino *Inode) {
	_ = fs.chargeBlocks(cred, -(ino.nblocks + 1))
	ino.runs, ino.nblocks = nil, 0
	ino.size = 0
}
