// Package vfs implements the in-memory POSIX filesystem that stands in for
// Ext4 in this reproduction. It provides inodes, directories, symlink
// resolution, permission checks, extended attributes, block-based space
// accounting, and per-user quotas, and it returns the real Linux errno set
// so that IOCov's output-coverage partitions are exercised the same way they
// would be on a real kernel.
//
// The package is deliberately split along the lines of a real kernel
// filesystem: path resolution (resolve.go), regular-file I/O (file.go),
// namespace operations (namespace.go), and extended attributes (xattr.go).
// The syscall ABI — file descriptors, *at resolution, flag validation — lives
// one layer up in internal/kernel.
package vfs

import (
	"sync"

	"iocov/internal/sys"
)

// NodeType discriminates the inode kinds the filesystem supports.
type NodeType int

// Supported inode types.
const (
	TypeFile NodeType = iota
	TypeDir
	TypeSymlink
)

func (t NodeType) String() string {
	switch t {
	case TypeFile:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return "unknown"
	}
}

// Cred identifies the caller of a filesystem operation. UID 0 bypasses
// permission checks, as on Linux.
type Cred struct {
	UID uint32
	GID uint32
}

// Root is the superuser credential.
var Root = Cred{UID: 0, GID: 0}

// Config fixes the limits of a filesystem instance. The defaults model a
// small Ext4 partition: 4 KiB blocks, 255-byte names, 4096-byte paths, and a
// per-inode xattr capacity similar to Ext4's in-inode extended attribute
// space.
type Config struct {
	// CapacityBytes is the size of the backing device. Exhausting it makes
	// allocating writes fail with ENOSPC.
	CapacityBytes int64
	// BlockSize is the allocation unit used for space accounting.
	BlockSize int64
	// MaxFileSize bounds a single file; writes and truncates past it fail
	// with EFBIG. Ext4's limit is 16 TiB with 4 KiB blocks.
	MaxFileSize int64
	// MaxNameLen bounds one path component (ENAMETOOLONG).
	MaxNameLen int
	// MaxPathLen bounds an entire path argument (ENAMETOOLONG).
	MaxPathLen int
	// MaxSymlinkDepth bounds symlink recursion (ELOOP).
	MaxSymlinkDepth int
	// MaxXattrValue bounds one extended-attribute value (like Linux
	// XATTR_SIZE_MAX).
	MaxXattrValue int
	// XattrCapacity bounds the total xattr bytes stored in one inode,
	// modelling Ext4's in-inode xattr space.
	XattrCapacity int
	// QuotaBytes, when non-zero, is a per-UID block quota; exceeding it
	// fails with EDQUOT. UID 0 is exempt.
	QuotaBytes int64
	// ReadOnly mounts the filesystem read-only; every mutating operation
	// fails with EROFS.
	ReadOnly bool
	// Bugs selects the injectable defects used by the bug-study
	// reproduction. The zero value is a correct filesystem.
	Bugs BugSet
}

// BugSet enables the injectable bugs modelled on the commits the paper's bug
// study analyzes. Each bug is guarded by a specific input or output
// condition, which is the point: the buggy code is executed (covered) by
// ordinary workloads but misbehaves only for particular arguments.
type BugSet struct {
	// XattrSizeOverflow reproduces Figure 1 (ext4 xattr min_offs overflow,
	// fixed by EXT4_INODE_HAS_XATTR_SPACE): a setxattr whose value has the
	// maximum allowed size silently corrupts the inode's xattr block
	// instead of returning ENOSPC.
	XattrSizeOverflow bool
	// LargefileOpen reproduces the XFS generic_file_open class of bug
	// ([62]): opening a file larger than 2 GiB without O_LARGEFILE should
	// fail with EOVERFLOW, but the buggy path succeeds and later reads
	// return truncated sizes (modelled as corruption).
	LargefileOpen bool
	// NowaitWriteENOSPC reproduces the BtrFS NOWAIT buffered-write bug
	// ([36]): an O_NONBLOCK write that would need new allocation wrongly
	// returns ENOSPC even though space is available.
	NowaitWriteENOSPC bool
	// TruncateExpandError reproduces the ext4 resize class ([32]): growing
	// a file with truncate to a size whose final block is exactly at a
	// block boundary stops short (size set one block too small).
	TruncateExpandError bool
	// GetBranchErrno reproduces the ext4_get_branch error-code bug ([22]):
	// a read that hits a (simulated) bad block returns success with zero
	// bytes instead of EIO.
	GetBranchErrno bool
	// FsyncIgnored models the crash-consistency bug class CrashMonkey
	// hunts: fsync/fdatasync return success without actually persisting,
	// so data acknowledged as durable is lost on a crash. Only observable
	// through the crash simulator (internal/crashsim).
	FsyncIgnored bool
}

// DefaultConfig returns the configuration used throughout the evaluation: a
// 1 GiB device with Ext4-like limits.
func DefaultConfig() Config {
	return Config{
		CapacityBytes:   1 << 30,
		BlockSize:       4096,
		MaxFileSize:     16 << 40,
		MaxNameLen:      255,
		MaxPathLen:      4096,
		MaxSymlinkDepth: 40,
		MaxXattrValue:   1 << 16,
		XattrCapacity:   1 << 16,
	}
}

// FS is an in-memory filesystem instance. All methods are safe for
// concurrent use; a single mutex serializes operations, matching the
// granularity IOCov needs (argument/return observation, not scalability).
type FS struct {
	// root is set once in New and immutable afterwards; the inode tree it
	// anchors is guarded by mu like all other mutable state.
	root *Inode

	mu      sync.Mutex
	cfg     Config
	nextIno uint64
	// clock is the logical timestamp source; it ticks on every operation
	// that stamps a time.
	clock uint64

	usedBlocks  int64
	totalBlocks int64
	quotaUsed   map[uint32]int64

	// corrupted records silent-corruption events produced by injected
	// bugs; CheckConsistency surfaces them the way a crash-consistency or
	// differential checker would.
	corrupted []string

	// regions, when non-nil, records which modelled kernel code regions an
	// operation executed; the bug-study reproduction uses it to measure
	// "line covered but bug missed".
	regions *RegionSet
}

// New creates an empty filesystem with the given configuration. Invalid
// configurations (zero block size or capacity) are normalized to defaults.
func New(cfg Config) *FS {
	def := DefaultConfig()
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = def.BlockSize
	}
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = def.CapacityBytes
	}
	if cfg.MaxFileSize <= 0 {
		cfg.MaxFileSize = def.MaxFileSize
	}
	if cfg.MaxNameLen <= 0 {
		cfg.MaxNameLen = def.MaxNameLen
	}
	if cfg.MaxPathLen <= 0 {
		cfg.MaxPathLen = def.MaxPathLen
	}
	if cfg.MaxSymlinkDepth <= 0 {
		cfg.MaxSymlinkDepth = def.MaxSymlinkDepth
	}
	if cfg.MaxXattrValue <= 0 {
		cfg.MaxXattrValue = def.MaxXattrValue
	}
	if cfg.XattrCapacity <= 0 {
		cfg.XattrCapacity = def.XattrCapacity
	}
	fs := &FS{
		cfg:         cfg,
		nextIno:     1,
		totalBlocks: cfg.CapacityBytes / cfg.BlockSize,
		quotaUsed:   make(map[uint32]int64),
	}
	fs.root = fs.newInode(TypeDir, 0o755, Root)
	fs.root.parent = fs.root
	return fs
}

// Config returns a copy of the filesystem's configuration. It takes the
// lock: SetReadOnly mutates cfg.ReadOnly at remount, and an unlocked read
// here races with it.
func (fs *FS) Config() Config {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.cfg
}

// Root returns the root directory inode.
func (fs *FS) Root() *Inode { return fs.root }

// SetReadOnly remounts the filesystem read-only (or read-write).
func (fs *FS) SetReadOnly(ro bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cfg.ReadOnly = ro
}

// AttachRegions installs a region tracker used by the bug-study harness to
// model line coverage of the simulated kernel code.
func (fs *FS) AttachRegions(r *RegionSet) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.regions = r
}

func (fs *FS) hitRegion(name string) {
	if fs.regions != nil {
		fs.regions.Hit(name)
	}
}

// tick advances the logical clock.
func (fs *FS) tick() uint64 {
	fs.clock++
	return fs.clock
}

// TouchAtime stamps an access time on ino; the kernel layer calls it after
// successful reads unless the descriptor was opened with O_NOATIME.
func (fs *FS) TouchAtime(ino *Inode) {
	fs.mu.Lock()
	ino.atime = fs.tick()
	fs.mu.Unlock()
}

// stampData records a data modification (mtime+ctime) and bumps the
// generation. Callers hold fs.mu.
func (fs *FS) stampData(ino *Inode) {
	now := fs.tick()
	ino.mtime, ino.ctime = now, now
	ino.touch()
}

// stampMeta records a metadata change (ctime) and bumps the generation.
// Callers hold fs.mu.
func (fs *FS) stampMeta(ino *Inode) {
	ino.ctime = fs.tick()
	ino.touch()
}

// UsedBlocks reports the number of allocated blocks.
func (fs *FS) UsedBlocks() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.usedBlocks
}

// FreeBytes reports the unallocated capacity in bytes.
func (fs *FS) FreeBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return (fs.totalBlocks - fs.usedBlocks) * fs.cfg.BlockSize
}

// CheckConsistency returns the silent-corruption records accumulated by
// injected bugs. A correct filesystem always returns an empty slice.
func (fs *FS) CheckConsistency() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]string(nil), fs.corrupted...)
}

func (fs *FS) recordCorruption(what string) {
	fs.corrupted = append(fs.corrupted, what)
}

// chargeBlocks allocates delta blocks to uid, enforcing device capacity and
// quota. A negative delta releases blocks.
func (fs *FS) chargeBlocks(cred Cred, delta int64) sys.Errno {
	if delta > 0 {
		if fs.usedBlocks+delta > fs.totalBlocks {
			return sys.ENOSPC
		}
		if fs.cfg.QuotaBytes > 0 && cred.UID != 0 {
			limit := fs.cfg.QuotaBytes / fs.cfg.BlockSize
			if fs.quotaUsed[cred.UID]+delta > limit {
				return sys.EDQUOT
			}
		}
	}
	fs.usedBlocks += delta
	if fs.cfg.QuotaBytes > 0 && cred.UID != 0 {
		fs.quotaUsed[cred.UID] += delta
		if fs.quotaUsed[cred.UID] < 0 {
			fs.quotaUsed[cred.UID] = 0
		}
	}
	if fs.usedBlocks < 0 {
		fs.usedBlocks = 0
	}
	return sys.OK
}

// RegionSet tracks which modelled kernel code regions have executed. It is
// the stand-in for Gcov line coverage in the bug-study reproduction.
type RegionSet struct {
	mu   sync.Mutex
	hits map[string]int64
}

// NewRegionSet returns an empty tracker.
func NewRegionSet() *RegionSet {
	return &RegionSet{hits: make(map[string]int64)}
}

// Hit records one execution of region name.
func (r *RegionSet) Hit(name string) {
	r.mu.Lock()
	r.hits[name]++
	r.mu.Unlock()
}

// Count returns how many times region name executed.
func (r *RegionSet) Count(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[name]
}

// Covered reports whether region name executed at least once.
func (r *RegionSet) Covered(name string) bool { return r.Count(name) > 0 }
