package syz

import (
	"fmt"

	"iocov/internal/kernel"
	"iocov/internal/sys"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

// sigEntry describes how one raw syscall's positional arguments map to the
// semantic keys IOCov's analyzer expects. Kinds:
//
//	fd, dirfd   — descriptor (resolved through r-bindings)
//	path, name  — string pointer
//	flags, mode, count, offset, whence, length, size, resolve — numeric
//	data        — data pointer whose length is the size argument
var signatures = map[string][]string{
	"open":      {"path", "flags", "mode"},
	"openat":    {"dirfd", "path", "flags", "mode"},
	"creat":     {"path", "mode"},
	"read":      {"fd", "data", "count"},
	"pread64":   {"fd", "data", "count", "offset"},
	"write":     {"fd", "data", "count"},
	"pwrite64":  {"fd", "data", "count", "offset"},
	"lseek":     {"fd", "offset", "whence"},
	"truncate":  {"path", "length"},
	"ftruncate": {"fd", "length"},
	"mkdir":     {"path", "mode"},
	"mkdirat":   {"dirfd", "path", "mode"},
	"chmod":     {"path", "mode"},
	"fchmod":    {"fd", "mode"},
	"fchmodat":  {"dirfd", "path", "mode", "aflags"},
	"close":     {"fd"},
	"chdir":     {"path"},
	"fchdir":    {"fd"},
	"setxattr":  {"path", "name", "data", "size", "xflags"},
	"lsetxattr": {"path", "name", "data", "size", "xflags"},
	"fsetxattr": {"fd", "name", "data", "size", "xflags"},
	"getxattr":  {"path", "name", "data", "size"},
	"lgetxattr": {"path", "name", "data", "size"},
	"fgetxattr": {"fd", "name", "data", "size"},
}

// keyFor maps a signature kind to the trace-event argument key the
// analyzer's sysspec expects (see internal/kernel's emit calls).
func keyFor(name, kind string) string {
	switch kind {
	case "dirfd":
		return "dfd"
	case "path":
		switch name {
		case "open", "openat", "chdir":
			return "filename"
		case "truncate":
			return "path"
		default:
			return "pathname"
		}
	case "offset":
		switch name {
		case "pread64", "pwrite64":
			return "pos"
		default:
			return "offset"
		}
	case "aflags", "xflags":
		return "flags"
	default:
		return kind
	}
}

// Convert statically turns a program into trace events: arguments only, no
// return values (fuzzer corpora describe inputs, not outcomes). Result
// references resolve to a placeholder fd value. Calls whose syscall is
// unknown are skipped and counted.
func Convert(progs []Program) (events []trace.Event, skipped int) {
	var seq uint64
	for pi, prog := range progs {
		for _, c := range prog.Calls {
			sig, ok := signatures[c.Name]
			if !ok {
				skipped++
				continue
			}
			seq++
			ev := trace.Event{Seq: seq, PID: pi + 1, Name: c.Name}
			fillArgs(&ev, c, sig, func(ref int) int64 { return int64(100 + ref) })
			events = append(events, ev)
		}
	}
	return events, skipped
}

func fillArgs(ev *trace.Event, c Call, sig []string, resolve func(int) int64) {
	for i, kind := range sig {
		if i >= len(c.Args) {
			break
		}
		a := c.Args[i]
		key := keyFor(c.Name, kind)
		switch kind {
		case "path", "name":
			if a.Kind == KindString {
				ev.AddStr(key, a.Str)
				if kind == "path" {
					ev.Path = a.Str
				}
			}
		case "data":
			// The pointer itself is not traced; its length arrives via the
			// count/size argument.
		default:
			switch a.Kind {
			case KindConst:
				v := a.Const
				if kind == "dirfd" {
					// 0xffffffffffffff9c is AT_FDCWD as unsigned.
					if int32(v) == sys.AT_FDCWD {
						v = sys.AT_FDCWD
					}
				}
				ev.AddArg(key, v)
			case KindResult:
				ev.AddArg(key, resolve(a.Ref))
			}
		}
	}
}

// ExecResult summarizes an execution run.
type ExecResult struct {
	Executed int
	Skipped  int
	Failures int
}

// Execute runs programs against a simulated process, binding r-results to
// real descriptors so descriptor-based calls operate on live files. Trace
// events (with real return values) flow through the kernel's own sink, so
// attaching an analyzer to the kernel yields full input+output coverage.
func Execute(p *kernel.Proc, progs []Program) ExecResult {
	var res ExecResult
	for _, prog := range progs {
		bindings := make(map[int]int)
		for _, c := range prog.Calls {
			sig, ok := signatures[c.Name]
			if !ok {
				res.Skipped++
				continue
			}
			ret, err := executeCall(p, c, sig, bindings)
			res.Executed++
			if err != sys.OK {
				res.Failures++
			}
			if c.Result >= 0 && err == sys.OK {
				bindings[c.Result] = int(ret)
			}
		}
	}
	return res
}

// argView decodes a call's arguments against its signature.
type argView struct {
	c        Call
	sig      []string
	bindings map[int]int
}

func (v argView) num(kind string) int64 {
	for i, k := range v.sig {
		if k == kind && i < len(v.c.Args) {
			a := v.c.Args[i]
			switch a.Kind {
			case KindConst:
				return a.Const
			case KindResult:
				if fd, ok := v.bindings[a.Ref]; ok {
					return int64(fd)
				}
				return -1
			}
		}
	}
	return 0
}

func (v argView) str(kind string) string {
	for i, k := range v.sig {
		if k == kind && i < len(v.c.Args) {
			if v.c.Args[i].Kind == KindString {
				return v.c.Args[i].Str
			}
		}
	}
	return ""
}

func (v argView) fd(kind string) int {
	n := v.num(kind)
	if kind == "dirfd" && int32(n) == sys.AT_FDCWD {
		return sys.AT_FDCWD
	}
	return int(n)
}

func executeCall(p *kernel.Proc, c Call, sig []string, bindings map[int]int) (int64, sys.Errno) {
	v := argView{c: c, sig: sig, bindings: bindings}
	switch c.Name {
	case "open":
		fd, e := p.Open(v.str("path"), int(v.num("flags")), uint32(v.num("mode")))
		return int64(fd), e
	case "openat":
		fd, e := p.Openat(v.fd("dirfd"), v.str("path"), int(v.num("flags")), uint32(v.num("mode")))
		return int64(fd), e
	case "creat":
		fd, e := p.Creat(v.str("path"), uint32(v.num("mode")))
		return int64(fd), e
	case "read":
		n, e := p.Read(v.fd("fd"), make([]byte, clampLen(v.num("count"))))
		return int64(n), e
	case "pread64":
		n, e := p.Pread64(v.fd("fd"), make([]byte, clampLen(v.num("count"))), v.num("offset"))
		return int64(n), e
	case "write":
		n, e := p.Write(v.fd("fd"), zeroBuf(clampLen(v.num("count"))))
		return int64(n), e
	case "pwrite64":
		n, e := p.Pwrite64(v.fd("fd"), zeroBuf(clampLen(v.num("count"))), v.num("offset"))
		return int64(n), e
	case "lseek":
		n, e := p.Lseek(v.fd("fd"), v.num("offset"), int(v.num("whence")))
		return n, e
	case "truncate":
		return 0, p.Truncate(v.str("path"), v.num("length"))
	case "ftruncate":
		return 0, p.Ftruncate(v.fd("fd"), v.num("length"))
	case "mkdir":
		return 0, p.Mkdir(v.str("path"), uint32(v.num("mode")))
	case "mkdirat":
		return 0, p.Mkdirat(v.fd("dirfd"), v.str("path"), uint32(v.num("mode")))
	case "chmod":
		return 0, p.Chmod(v.str("path"), uint32(v.num("mode")))
	case "fchmod":
		return 0, p.Fchmod(v.fd("fd"), uint32(v.num("mode")))
	case "fchmodat":
		return 0, p.Fchmodat(v.fd("dirfd"), v.str("path"), uint32(v.num("mode")), int(v.num("aflags")))
	case "close":
		return 0, p.Close(v.fd("fd"))
	case "chdir":
		return 0, p.Chdir(v.str("path"))
	case "fchdir":
		return 0, p.Fchdir(v.fd("fd"))
	case "setxattr":
		return 0, p.Setxattr(v.str("path"), v.str("name"), zeroBuf(clampLen(v.num("size"))), int(v.num("xflags")))
	case "lsetxattr":
		return 0, p.Lsetxattr(v.str("path"), v.str("name"), zeroBuf(clampLen(v.num("size"))), int(v.num("xflags")))
	case "fsetxattr":
		return 0, p.Fsetxattr(v.fd("fd"), v.str("name"), zeroBuf(clampLen(v.num("size"))), int(v.num("xflags")))
	case "getxattr":
		n, e := p.Getxattr(v.str("path"), v.str("name"), make([]byte, clampLen(v.num("size"))))
		return int64(n), e
	case "lgetxattr":
		n, e := p.Lgetxattr(v.str("path"), v.str("name"), make([]byte, clampLen(v.num("size"))))
		return int64(n), e
	case "fgetxattr":
		n, e := p.Fgetxattr(v.fd("fd"), v.str("name"), make([]byte, clampLen(v.num("size"))))
		return int64(n), e
	default:
		panic(fmt.Sprintf("syz: signature table and executor out of sync for %s", c.Name))
	}
}

// MaxDataLen is the executor's buffer-size bound (a real executor's mmap'd
// arena bound): fuzzer-supplied counts above it — and negative counts,
// which clamp to zero — cannot be expressed as an allocated buffer, so the
// traced count of a buffer-length argument never exceeds the 2^26 bucket.
// This is the irreducible untested-partition floor of buffer-length spaces,
// the only labels the probe table declines.
const MaxDataLen = 1 << 26 // 64 MiB arena

// clampLen bounds fuzzer-supplied buffer sizes to something allocatable;
// the traced count argument uses the clamped value.
func clampLen(n int64) int64 {
	if n < 0 {
		return 0
	}
	if n > MaxDataLen {
		return MaxDataLen
	}
	return n
}

// zeroBuf returns an n-byte all-zero buffer sliced from the process-wide
// shared zero arena (vfs.Zeros). Strictly read-only: only write-side
// payloads (write, pwrite64, setxattr values — all copied by the kernel
// before it returns) may use it; read-side buffers are written by the
// kernel and must stay private allocations.
func zeroBuf(n int64) []byte {
	return vfs.Zeros(int(n))
}
