package vfs

import (
	"maps"
	"slices"

	"iocov/internal/sys"
)

// Clone deep-copies the filesystem: inodes, directory structure, file data,
// and xattrs. The crash-consistency simulator uses clones as persistence
// snapshots — the clone is what survives a simulated crash.
//
// Open descriptors (which live in the kernel layer) are not part of a
// filesystem and are therefore not cloned; region trackers and corruption
// records belong to the live instance and start empty in the clone.
func (fs *FS) Clone() *FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := &FS{
		cfg:         fs.cfg,
		nextIno:     fs.nextIno,
		clock:       fs.clock,
		usedBlocks:  fs.usedBlocks,
		totalBlocks: fs.totalBlocks,
		quotaUsed:   maps.Clone(fs.quotaUsed),
	}
	out.root = cloneInode(fs.root, nil, make(map[*Inode]*Inode))
	out.root.parent = out.root
	return out
}

// cloneInode copies in and, for a directory, its subtree. seen maps each
// inode cloned so far to its copy, so a hard-linked file stays one inode
// under all its names, in one directory or several.
func cloneInode(in, parent *Inode, seen map[*Inode]*Inode) *Inode {
	if dup, ok := seen[in]; ok {
		return dup
	}
	out := new(Inode)
	*out = *in
	seen[in] = out
	out.parent, out.runs = parent, slices.Clone(in.runs)
	out.xattrs = make(map[string][]byte, len(in.xattrs))
	for k, v := range in.xattrs {
		out.xattrs[k] = append([]byte(nil), v...)
	}
	for k, r := range out.runs {
		if r.data != nil {
			out.runs[k].data = slices.Clone(r.data)
		}
	}
	if in.children != nil {
		out.children = make(map[string]*Inode, len(in.children))
		for name, child := range in.children {
			out.children[name] = cloneInode(child, out, seen)
		}
	}
	return out
}

// WalkStats collects a deterministic inventory of the tree for comparing a
// crash image against expectations: path -> Stat, in sorted order.
func (fs *FS) WalkStats() map[string]Stat {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[string]Stat)
	fs.walkStats("", fs.root, out)
	return out
}

func (fs *FS) walkStats(prefix string, dir *Inode, out map[string]Stat) {
	for name, child := range dir.children {
		path := prefix + "/" + name
		out[path] = fs.statLocked(child)
		if child.typ == TypeDir {
			fs.walkStats(path, child, out)
		}
	}
}

// ReadFileAt is a lock-consistent convenience for checkers: it reads the
// file at path (absolute) without permission checks.
func (fs *FS) ReadFileAt(path string, off int64, n int) ([]byte, sys.Errno) {
	ino, e := fs.LookupInode(fs.Root(), Root, path, true)
	if e != sys.OK {
		return nil, e
	}
	buf := make([]byte, n)
	got, e := fs.ReadAt(Root, ino, buf, off)
	if e != sys.OK {
		return nil, e
	}
	return buf[:got], sys.OK
}
