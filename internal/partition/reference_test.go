package partition

import (
	"iocov/internal/sys"
	"iocov/internal/sysspec"
)

// The reference labeller: a straightforward label-producing partitioner for
// every scheme and for outputs, written independently of the ordinal code it
// checks. The production schemes only report Domain() ordinals; the tests
// map those through Domain() and require the same labels, in the same order,
// as the reference produces here. The reference keeps its own copy of the
// open-flag decode order on purpose, so a change to the shared table in sys
// shows up as a disagreement instead of moving both sides at once.

// referenceLabels returns the partition labels one value hits under a
// scheme: one per set flag for bitmap schemes, exactly one otherwise.
func referenceLabels(scheme string, v int64) []string {
	switch scheme {
	case sysspec.SchemeOpenFlags:
		return referenceOpenFlags(int(v))
	case sysspec.SchemeModeBits:
		var names []string
		for _, b := range sys.ModeBitNames {
			if uint32(v)&b.Bit != 0 {
				names = append(names, b.Name)
			}
		}
		if len(names) == 0 {
			return []string{LabelZero}
		}
		return names
	case sysspec.SchemeBytes, sysspec.SchemeOffset:
		return []string{referenceNumeric(v)}
	case sysspec.SchemeWhence:
		if v >= 0 && v < int64(len(sys.WhenceNames)) {
			return []string{sys.WhenceNames[v]}
		}
		return []string{LabelInvalid}
	case sysspec.SchemeXattrFlags:
		switch int(v) {
		case 0, sys.XATTR_CREATE, sys.XATTR_REPLACE:
			return []string{sys.XattrFlagName(int(v))}
		default:
			return []string{LabelInvalid}
		}
	}
	panic("reference: unknown scheme " + scheme)
}

// referenceNumeric labels a byte count or offset: "<0", "=0", or the
// power-of-two bucket it rounds down to.
func referenceNumeric(v int64) string {
	switch {
	case v < 0:
		return LabelNegative
	case v == 0:
		return LabelZero
	default:
		return Log2Label(Log2Bucket(v))
	}
}

// referenceOpenFlags decodes an open flags word: the access mode, then the
// single-bit flags in report order, then the composites O_SYNC and
// O_TMPFILE, each of which subsumes its embedded bit.
func referenceOpenFlags(flags int) []string {
	var names []string
	switch flags & sys.O_ACCMODE {
	case sys.O_RDONLY:
		names = append(names, "O_RDONLY")
	case sys.O_WRONLY:
		names = append(names, "O_WRONLY")
	case sys.O_RDWR:
		names = append(names, "O_RDWR")
	default:
		names = append(names, sys.AccModeInvalidName)
	}
	for _, b := range []struct {
		bit  int
		name string
	}{
		{sys.O_CREAT, "O_CREAT"},
		{sys.O_EXCL, "O_EXCL"},
		{sys.O_NOCTTY, "O_NOCTTY"},
		{sys.O_TRUNC, "O_TRUNC"},
		{sys.O_APPEND, "O_APPEND"},
		{sys.O_NONBLOCK, "O_NONBLOCK"},
		{sys.O_ASYNC, "O_ASYNC"},
		{sys.O_DIRECT, "O_DIRECT"},
		{sys.O_LARGEFILE, "O_LARGEFILE"},
		{sys.O_NOFOLLOW, "O_NOFOLLOW"},
		{sys.O_NOATIME, "O_NOATIME"},
		{sys.O_CLOEXEC, "O_CLOEXEC"},
		{sys.O_PATH, "O_PATH"},
	} {
		if flags&b.bit != 0 {
			names = append(names, b.name)
		}
	}
	switch {
	case flags&(sys.O_SYNC&^sys.O_DSYNC) != 0:
		names = append(names, "O_SYNC")
	case flags&sys.O_DSYNC != 0:
		names = append(names, "O_DSYNC")
	}
	switch {
	case flags&(sys.O_TMPFILE&^sys.O_DIRECTORY) != 0:
		names = append(names, "O_TMPFILE")
	case flags&sys.O_DIRECTORY != 0:
		names = append(names, "O_DIRECTORY")
	}
	return names
}

// referenceOutput labels a syscall outcome. On failure the partition is the
// errno name; on success it is "OK", refined to "OK:<0", "OK:=0" or
// "OK:2^k" when the syscall returns a byte count or offset.
func referenceOutput(ret sysspec.RetKind, retVal int64, err sys.Errno) string {
	if err != sys.OK {
		return err.Name()
	}
	switch ret {
	case sysspec.RetBytes, sysspec.RetOffset:
		return LabelOK + ":" + referenceNumeric(retVal)
	default:
		return LabelOK
	}
}

// isSuccess reports whether an output partition label is a success
// partition.
func isSuccess(label string) bool {
	return label == LabelOK || (len(label) > 3 && label[:3] == LabelOK+":")
}
