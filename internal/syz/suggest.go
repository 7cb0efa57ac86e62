package syz

import (
	"iocov/internal/coverage"
	"iocov/internal/partition"
	"iocov/internal/sys"
)

// Probe is one row of the probe table, IOCov's feedback loop in one place:
// for one input argument space it maps a partition label to the argument
// value that hits the partition and builds a runnable program passing that
// value. Suggest, internal/evolve's targeted arm and internal/difftest's
// guidance all read this table, so it alone decides which partitions can be
// reached and how.
type Probe struct {
	Syscall, Arg string
	// value maps a domain label to the argument value that hits it; ok is
	// false when no program can reach the label.
	value func(label string) (int64, bool)
	// build returns the program passing v, the value of label, under dir.
	build func(dir, label string, v int64) Program
}

// probes is the table. Its order is the order Suggest emits probes in.
var probes = []Probe{
	{"open", "flags", openFlagValue, func(dir, _ string, v int64) Program {
		target := dir + "/flagprobe"
		if v&(sys.O_DIRECTORY|sys.O_TMPFILE|sys.O_PATH) != 0 {
			target = dir // directory-target flags probe the directory itself
		}
		return onFile(target, v, 0o644)
	}},
	// The mode argument is traced raw, so the partition is hit whether or
	// not the open succeeds.
	{"open", "mode", modeValue, func(dir, label string, v int64) Program {
		return onFile(dir+"/modeprobe_"+label, sys.O_CREAT|sys.O_RDWR, v)
	}},
	{"read", "count", bufferValue, buildCount("read")},
	{"read", "pos", partition.NumericValue, buildPos("pread64")},
	{"write", "count", bufferValue, buildCount("write")},
	{"write", "pos", partition.NumericValue, buildPos("pwrite64")},
	// truncate's length is traced raw: "<0" and lengths past the file-size
	// limit fail (EINVAL, EFBIG) but still hit their partition.
	{"truncate", "length", partition.NumericValue, func(dir, _ string, v int64) Program {
		path := dir + "/tprobe"
		return pathProbe(path, call("truncate", str(path), num(v)))
	}},
	{"setxattr", "size", bufferValue, func(dir, _ string, v int64) Program {
		path := dir + "/xprobe"
		return pathProbe(path,
			call("setxattr", str(path), str("user.probe"), data(2), num(v), num(0)))
	}},
	{"getxattr", "size", bufferValue, func(dir, _ string, v int64) Program {
		path := dir + "/gprobe"
		return pathProbe(path,
			call("getxattr", str(path), str("user.probe"), data(0), num(v)))
	}},
	{"lseek", "whence", whenceValue, func(dir, _ string, v int64) Program {
		return onFile(dir+"/sprobe", sys.O_CREAT|sys.O_RDWR, 0o644,
			call("write", r0, data(2), num(4096)),
			call("lseek", r0, num(16), num(v)))
	}},
}

// Probes returns the probe table's rows in order.
func Probes() []Probe { return append([]Probe(nil), probes...) }

// ProbeFor returns the probe table's row for input space syscall.arg, or
// nil when the table does not serve the space.
func ProbeFor(syscall, arg string) *Probe {
	for i := range probes {
		if probes[i].Syscall == syscall && probes[i].Arg == arg {
			return &probes[i]
		}
	}
	return nil
}

// Value returns the argument value that hits the labeled partition, or
// ok=false when no program can reach it.
func (p *Probe) Value(label string) (int64, bool) { return p.value(label) }

// Build returns the program that hits the labeled partition, operating
// under dir, or ok=false when no program can reach it.
func (p *Probe) Build(label, dir string) (Program, bool) {
	v, ok := p.value(label)
	if !ok {
		return Program{}, false
	}
	return p.build(dir, label, v), true
}

// Untested returns the untested partitions of the probe's space in an that
// a program can reach, in domain order.
func (p *Probe) Untested(an *coverage.Analyzer) []string {
	rep := an.InputReport(p.Syscall, p.Arg)
	if rep == nil {
		return nil
	}
	var out []string
	for _, label := range rep.Untested() {
		if _, ok := p.value(label); ok {
			out = append(out, label)
		}
	}
	return out
}

// Suggest closes IOCov's feedback loop: given a suite's coverage, it
// generates runnable syzkaller-style programs that probe the untested input
// partitions — one program per finding, readable enough to hand to a test
// developer and executable against the simulated kernel (Execute) to
// verify the gap closes.
//
// dir is the directory the probes operate in; max bounds the number of
// programs (0 means no bound). The full candidate set is always built
// before the bound is applied, and truncated reports whether the bound
// dropped any programs.
func Suggest(an *coverage.Analyzer, dir string, max int) (progs []Program, truncated bool) {
	if dir == "" {
		dir = "/probe"
	}
	for i := range probes {
		p := &probes[i]
		for _, label := range p.Untested(an) {
			prog, _ := p.Build(label, dir)
			progs = append(progs, prog)
		}
	}
	if max > 0 && len(progs) > max {
		progs = progs[:max]
		truncated = true
	}
	return progs, truncated
}

// openFlagValue is the flags word that opens a scratch target with the
// named flag. The invalid access mode has no flag name to encode, so it is
// the reserved 0b11 accmode bit pattern.
func openFlagValue(label string) (int64, bool) {
	flags := sys.O_ACCMODE
	if label != sys.AccModeInvalidName {
		bits, ok := sys.EncodeOpenFlags([]string{label})
		if !ok {
			return 0, false
		}
		flags = bits
	}
	if label != "O_WRONLY" && label != "O_RDWR" {
		flags |= sys.O_CREAT // access modes stand alone
	}
	if flags&(sys.O_DIRECTORY|sys.O_TMPFILE|sys.O_PATH) != 0 {
		flags &^= sys.O_CREAT
	}
	if flags&sys.O_TMPFILE != 0 {
		flags |= sys.O_RDWR
	}
	return int64(flags), true
}

// modeValue is the mode carrying exactly the named bit, or zero for "=0".
func modeValue(label string) (int64, bool) {
	if label == partition.LabelZero {
		return 0, true
	}
	for _, b := range sys.ModeBitNames {
		if b.Name == label {
			return int64(b.Bit), true
		}
	}
	return 0, false
}

// bufferValue is the boundary value of a buffer-length partition. The
// executor clamps buffer lengths into [0, MaxDataLen] before allocating
// (clampLen), so "<0" and every bucket above MaxDataLen are unreachable:
// the table's only floor.
func bufferValue(label string) (int64, bool) {
	v, ok := partition.NumericValue(label)
	return v, ok && v >= 0 && v <= MaxDataLen
}

// whenceValue is the whence value of the label; "invalid" is the first
// value past the named ones.
func whenceValue(label string) (int64, bool) {
	if label == partition.LabelInvalid {
		return int64(len(sys.WhenceNames)), true
	}
	for i, name := range sys.WhenceNames {
		if name == label {
			return int64(i), true
		}
	}
	return 0, false
}

// buildCount builds probes that read or write a buffer of the labeled
// length.
func buildCount(name string) func(dir, label string, v int64) Program {
	return func(dir, _ string, v int64) Program {
		return onFile(dir+"/countprobe", sys.O_CREAT|sys.O_RDWR, 0o644,
			call(name, r0, data(2), num(v)))
	}
}

// buildPos builds probes that issue a one-byte pread64/pwrite64 at the
// labeled offset. pos is traced raw, even when the call fails, and the
// simulated filesystem is sparse, so the whole offset domain is reachable.
func buildPos(name string) func(dir, label string, v int64) Program {
	return func(dir, _ string, v int64) Program {
		return onFile(dir+"/posprobe", sys.O_CREAT|sys.O_RDWR, 0o644,
			call(name, r0, data(2), num(1), num(v)))
	}
}

// onFile opens path as r0, runs calls and closes r0.
func onFile(path string, flags, mode int64, calls ...Call) Program {
	open := Call{Result: 0, Name: "openat",
		Args: []Arg{num(sys.AT_FDCWD), str(path), num(flags), num(mode)}}
	return Program{Calls: append(append([]Call{open}, calls...), call("close", r0))}
}

// pathProbe creates path, closes it, and then runs the path-based call c.
func pathProbe(path string, c Call) Program {
	p := onFile(path, sys.O_CREAT|sys.O_WRONLY, 0o644)
	p.Calls = append(p.Calls, c)
	return p
}

var r0 = Arg{Kind: KindResult, Ref: 0}

func call(name string, args ...Arg) Call { return Call{Result: -1, Name: name, Args: args} }
func num(v int64) Arg                    { return Arg{Kind: KindConst, Const: v} }
func str(s string) Arg                   { return Arg{Kind: KindString, Str: s} }
func data(n int64) Arg                   { return Arg{Kind: KindData, DataLen: n} }
