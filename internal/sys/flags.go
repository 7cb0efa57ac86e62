package sys

import (
	"slices"
	"sort"
	"strings"
)

// Open flags (Linux x86-64 octal values).
const (
	O_RDONLY    = 0o0
	O_WRONLY    = 0o1
	O_RDWR      = 0o2
	O_ACCMODE   = 0o3
	O_CREAT     = 0o100
	O_EXCL      = 0o200
	O_NOCTTY    = 0o400
	O_TRUNC     = 0o1000
	O_APPEND    = 0o2000
	O_NONBLOCK  = 0o4000
	O_DSYNC     = 0o10000
	O_ASYNC     = 0o20000
	O_DIRECT    = 0o40000
	O_LARGEFILE = 0o100000
	O_DIRECTORY = 0o200000
	O_NOFOLLOW  = 0o400000
	O_NOATIME   = 0o1000000
	O_CLOEXEC   = 0o2000000
	// O_SYNC is defined as __O_SYNC|O_DSYNC on Linux.
	o_SYNC_only = 0o4000000
	O_SYNC      = o_SYNC_only | O_DSYNC
	O_PATH      = 0o10000000
	// O_TMPFILE is defined as __O_TMPFILE|O_DIRECTORY on Linux.
	o_TMPFILE_only = 0o20000000
	O_TMPFILE      = o_TMPFILE_only | O_DIRECTORY
)

// OpenFlag pairs an open flag's name with its bits.
type OpenFlag struct {
	Name string
	Bit  int
}

// OpenFlagNames lists every open flag the paper's Figure 2 enumerates, in
// the canonical order used when reporting coverage. Access modes come first;
// the composite flags O_SYNC and O_TMPFILE are reported as themselves, with
// their embedded bits (O_DSYNC, O_DIRECTORY) credited separately only when
// present on their own.
var OpenFlagNames = []OpenFlag{
	{"O_RDONLY", O_RDONLY},
	{"O_WRONLY", O_WRONLY},
	{"O_RDWR", O_RDWR},
	{"O_CREAT", O_CREAT},
	{"O_EXCL", O_EXCL},
	{"O_NOCTTY", O_NOCTTY},
	{"O_TRUNC", O_TRUNC},
	{"O_APPEND", O_APPEND},
	{"O_NONBLOCK", O_NONBLOCK},
	{"O_DSYNC", O_DSYNC},
	{"O_ASYNC", O_ASYNC},
	{"O_DIRECT", O_DIRECT},
	{"O_LARGEFILE", O_LARGEFILE},
	{"O_DIRECTORY", O_DIRECTORY},
	{"O_NOFOLLOW", O_NOFOLLOW},
	{"O_NOATIME", O_NOATIME},
	{"O_CLOEXEC", O_CLOEXEC},
	{"O_SYNC", O_SYNC},
	{"O_PATH", O_PATH},
	{"O_TMPFILE", O_TMPFILE},
}

// SimpleOpenFlags is the decode order of the single-bit flags: OpenFlagNames
// without the access modes and without the O_SYNC/O_DSYNC and
// O_TMPFILE/O_DIRECTORY pairs, which decode by subsumption instead. Every
// open-flags decoder walks this one table, because the order of the names
// it reports is part of the flag-combination labels.
var SimpleOpenFlags = func() []OpenFlag {
	var out []OpenFlag
	for _, f := range OpenFlagNames {
		switch f.Bit {
		case O_RDONLY, O_WRONLY, O_RDWR, O_DSYNC, O_SYNC, O_DIRECTORY, O_TMPFILE:
			continue
		}
		out = append(out, f)
	}
	return out
}()

// AccModeInvalidName is the partition label DecodeOpenFlags reports for a
// flags word whose access-mode bits are the reserved 0b11 combination.
const AccModeInvalidName = "O_ACCMODE_INVALID"

// DecodeOpenFlags splits a flags word into the named flags it contains: the
// access mode first, then SimpleOpenFlags in order, then the composites.
// The access mode contributes exactly one name (O_RDONLY, O_WRONLY or
// O_RDWR). O_SYNC subsumes O_DSYNC and O_TMPFILE subsumes O_DIRECTORY, so a
// word containing the composite reports only the composite name.
func DecodeOpenFlags(flags int) []string {
	var names []string
	switch flags & O_ACCMODE {
	case O_RDONLY:
		names = append(names, "O_RDONLY")
	case O_WRONLY:
		names = append(names, "O_WRONLY")
	case O_RDWR:
		names = append(names, "O_RDWR")
	default:
		names = append(names, AccModeInvalidName)
	}
	for _, f := range SimpleOpenFlags {
		if flags&f.Bit != 0 {
			names = append(names, f.Name)
		}
	}
	switch {
	case flags&o_SYNC_only != 0:
		names = append(names, "O_SYNC")
	case flags&O_DSYNC != 0:
		names = append(names, "O_DSYNC")
	}
	switch {
	case flags&o_TMPFILE_only != 0:
		names = append(names, "O_TMPFILE")
	case flags&O_DIRECTORY != 0:
		names = append(names, "O_DIRECTORY")
	}
	return names
}

// EncodeOpenFlags is the inverse of DecodeOpenFlags for valid flag names.
// Unknown names are ignored and reported via ok=false.
func EncodeOpenFlags(names []string) (flags int, ok bool) {
	ok = true
	for _, n := range names {
		i := slices.IndexFunc(OpenFlagNames, func(f OpenFlag) bool { return f.Name == n })
		if i < 0 {
			ok = false
			continue
		}
		flags |= OpenFlagNames[i].Bit
	}
	return flags, ok
}

// FormatOpenFlags renders a flags word as "O_RDWR|O_CREAT|O_TRUNC".
func FormatOpenFlags(flags int) string {
	return strings.Join(DecodeOpenFlags(flags), "|")
}

// lseek whence values.
const (
	SEEK_SET  = 0
	SEEK_CUR  = 1
	SEEK_END  = 2
	SEEK_DATA = 3
	SEEK_HOLE = 4
)

// WhenceNames maps whence values to their symbolic names, in value order.
var WhenceNames = []string{"SEEK_SET", "SEEK_CUR", "SEEK_END", "SEEK_DATA", "SEEK_HOLE"}

// WhenceName returns the symbolic name of an lseek whence value.
func WhenceName(w int) string {
	if w >= 0 && w < len(WhenceNames) {
		return WhenceNames[w]
	}
	return "SEEK_INVALID"
}

// File mode permission and type bits (chmod / mkdir / open mode argument).
const (
	S_ISUID = 0o4000
	S_ISGID = 0o2000
	S_ISVTX = 0o1000
	S_IRUSR = 0o400
	S_IWUSR = 0o200
	S_IXUSR = 0o100
	S_IRGRP = 0o040
	S_IWGRP = 0o020
	S_IXGRP = 0o010
	S_IROTH = 0o004
	S_IWOTH = 0o002
	S_IXOTH = 0o001

	// PermMask covers every bit chmod may set.
	PermMask = S_ISUID | S_ISGID | S_ISVTX | 0o777
)

// ModeBitNames enumerates the mode bits tracked by the bitmap partitioner
// for chmod/mkdir/open mode arguments.
var ModeBitNames = []struct {
	Name string
	Bit  uint32
}{
	{"S_ISUID", S_ISUID},
	{"S_ISGID", S_ISGID},
	{"S_ISVTX", S_ISVTX},
	{"S_IRUSR", S_IRUSR},
	{"S_IWUSR", S_IWUSR},
	{"S_IXUSR", S_IXUSR},
	{"S_IRGRP", S_IRGRP},
	{"S_IWGRP", S_IWGRP},
	{"S_IXGRP", S_IXGRP},
	{"S_IROTH", S_IROTH},
	{"S_IWOTH", S_IWOTH},
	{"S_IXOTH", S_IXOTH},
}

// AT_* constants for the *at syscall variants.
const (
	AT_FDCWD            = -100
	AT_SYMLINK_NOFOLLOW = 0x100
	AT_SYMLINK_FOLLOW   = 0x400
	AT_EMPTY_PATH       = 0x1000
)

// setxattr flags.
const (
	XATTR_CREATE  = 1
	XATTR_REPLACE = 2
)

// XattrFlagNames maps setxattr flag values to symbolic names (value 0 is the
// default "either" behaviour).
var XattrFlagNames = map[int]string{
	0:             "0",
	XATTR_CREATE:  "XATTR_CREATE",
	XATTR_REPLACE: "XATTR_REPLACE",
}

// XattrFlagName returns the symbolic name for a setxattr flags value.
func XattrFlagName(f int) string {
	if n, ok := XattrFlagNames[f]; ok {
		return n
	}
	return "XATTR_INVALID"
}

// openat2 RESOLVE_* flags (subset relevant to path resolution).
const (
	RESOLVE_NO_SYMLINKS = 0x04
	RESOLVE_BENEATH     = 0x08
)

// SortedNames returns a sorted copy of names; reporting helpers use it to
// keep output deterministic.
func SortedNames(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}
