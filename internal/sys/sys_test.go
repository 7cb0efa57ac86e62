package sys

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestErrnoNames(t *testing.T) {
	if ENOENT.Name() != "ENOENT" || OK.Name() != "OK" {
		t.Error("basic names wrong")
	}
	if Errno(9999).Name() != "errno(9999)" {
		t.Errorf("unknown errno = %s", Errno(9999).Name())
	}
	if ENOENT.Error() != "ENOENT" || ENOENT.String() != "ENOENT" {
		t.Error("Error/String mismatch")
	}
}

func TestErrnoByName(t *testing.T) {
	e, ok := ErrnoByName("EACCES")
	if !ok || e != EACCES {
		t.Errorf("EACCES lookup = %v,%v", e, ok)
	}
	// The Linux alias resolves to EAGAIN.
	e, ok = ErrnoByName("EWOULDBLOCK")
	if !ok || e != EAGAIN {
		t.Errorf("EWOULDBLOCK = %v,%v", e, ok)
	}
	if _, ok := ErrnoByName("EBOGUS"); ok {
		t.Error("bogus errno resolved")
	}
}

func TestErrnoRoundTrip(t *testing.T) {
	for _, e := range AllErrnos() {
		back, ok := ErrnoByName(e.Name())
		if !ok || back != e {
			t.Errorf("%s does not round-trip", e)
		}
	}
}

func TestAllErrnosSorted(t *testing.T) {
	all := AllErrnos()
	if len(all) < 30 {
		t.Fatalf("only %d errnos", len(all))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Error("AllErrnos not sorted")
	}
	for _, e := range all {
		if e == OK {
			t.Error("AllErrnos contains OK")
		}
	}
}

func TestLinuxABIValues(t *testing.T) {
	// Spot-check against the real x86-64 ABI.
	cases := map[Errno]int{
		EPERM: 1, ENOENT: 2, EIO: 5, EBADF: 9, EAGAIN: 11, EACCES: 13,
		EEXIST: 17, ENOTDIR: 20, EISDIR: 21, EINVAL: 22, EMFILE: 24,
		EFBIG: 27, ENOSPC: 28, EROFS: 30, ENAMETOOLONG: 36, ELOOP: 40,
		ENODATA: 61, EOVERFLOW: 75, ENOTSUP: 95, EDQUOT: 122,
	}
	for e, v := range cases {
		if int(e) != v {
			t.Errorf("%s = %d, want %d", e.Name(), int(e), v)
		}
	}
	flagCases := map[string]int{
		"O_CREAT": 0x40, "O_EXCL": 0x80, "O_TRUNC": 0x200, "O_APPEND": 0x400,
		"O_NONBLOCK": 0x800, "O_DIRECT": 0x4000, "O_LARGEFILE": 0x8000,
		"O_DIRECTORY": 0x10000, "O_NOFOLLOW": 0x20000, "O_CLOEXEC": 0x80000,
		"O_SYNC": 0x101000, "O_PATH": 0x200000, "O_TMPFILE": 0x410000,
	}
	for name, want := range flagCases {
		got, ok := EncodeOpenFlags([]string{name})
		if !ok || got != want {
			t.Errorf("%s = %#x, want %#x", name, got, want)
		}
	}
	if AT_FDCWD != -100 {
		t.Errorf("AT_FDCWD = %d", AT_FDCWD)
	}
}

func TestDecodeEncodeOpenFlagsRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		// Constrain to valid flag bits with a valid access mode.
		flags := int(raw) & (O_ACCMODE | O_CREAT | O_EXCL | O_NOCTTY | O_TRUNC |
			O_APPEND | O_NONBLOCK | O_SYNC | O_ASYNC | O_DIRECT | O_LARGEFILE |
			O_TMPFILE | O_NOFOLLOW | O_NOATIME | O_CLOEXEC | O_PATH)
		if flags&O_ACCMODE == O_ACCMODE {
			flags &^= 1 // make the access mode valid
		}
		names := DecodeOpenFlags(flags)
		back, ok := EncodeOpenFlags(names)
		if !ok {
			return false
		}
		// Decode(back) must equal the original name set (encode/decode can
		// differ in raw bits only through the composite-flag subsumption).
		return reflect.DeepEqual(DecodeOpenFlags(back), names)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeOpenFlagsUnknown(t *testing.T) {
	if _, ok := EncodeOpenFlags([]string{"O_BOGUS"}); ok {
		t.Error("unknown flag accepted")
	}
}

func TestFormatOpenFlags(t *testing.T) {
	got := FormatOpenFlags(O_RDWR | O_CREAT | O_TRUNC)
	if got != "O_RDWR|O_CREAT|O_TRUNC" {
		t.Errorf("format = %s", got)
	}
	if FormatOpenFlags(0) != "O_RDONLY" {
		t.Errorf("zero flags = %s", FormatOpenFlags(0))
	}
}

// TestDecodeModeBits pins ModeBitNames, the mode-bits partition order:
// walking the table decodes a mode word into its bit names, setuid first.
func TestDecodeModeBits(t *testing.T) {
	decode := func(mode uint32) []string {
		var names []string
		for _, b := range ModeBitNames {
			if mode&b.Bit != 0 {
				names = append(names, b.Name)
			}
		}
		return names
	}
	got := decode(0o4621)
	want := []string{"S_ISUID", "S_IRUSR", "S_IWUSR", "S_IWGRP", "S_IXOTH"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decode(4621) = %v, want %v", got, want)
	}
	if decode(0) != nil {
		t.Error("zero mode should decode to nil")
	}
}

func TestWhenceName(t *testing.T) {
	cases := map[int]string{
		0: "SEEK_SET", 1: "SEEK_CUR", 2: "SEEK_END",
		3: "SEEK_DATA", 4: "SEEK_HOLE", 5: "SEEK_INVALID", -1: "SEEK_INVALID",
	}
	for w, want := range cases {
		if got := WhenceName(w); got != want {
			t.Errorf("WhenceName(%d) = %s, want %s", w, got, want)
		}
	}
}

func TestXattrFlagName(t *testing.T) {
	if XattrFlagName(0) != "0" || XattrFlagName(1) != "XATTR_CREATE" ||
		XattrFlagName(2) != "XATTR_REPLACE" || XattrFlagName(3) != "XATTR_INVALID" {
		t.Error("xattr flag names wrong")
	}
}

func TestSortedNames(t *testing.T) {
	in := []string{"c", "a", "b"}
	out := SortedNames(in)
	if !reflect.DeepEqual(out, []string{"a", "b", "c"}) {
		t.Errorf("sorted = %v", out)
	}
	// Input untouched.
	if !reflect.DeepEqual(in, []string{"c", "a", "b"}) {
		t.Error("input mutated")
	}
}
