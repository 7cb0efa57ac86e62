package syz

import (
	"iocov/internal/coverage"
	"iocov/internal/partition"
	"iocov/internal/sys"
)

// Suggest closes IOCov's feedback loop: given a suite's coverage, it
// generates runnable syzkaller-style programs that probe the untested input
// partitions — one program per finding, readable enough to hand to a test
// developer and executable against the simulated kernel (Execute) to
// verify the gap closes.
//
// dir is the directory the probes operate in; max bounds the number of
// programs (0 means no bound). The full candidate set is always built
// before the bound is applied, and truncated reports whether the bound
// dropped any programs — a bound hit mid-section used to silently swallow
// every later section (numeric probes, lseek whence) with no signal.
func Suggest(an *coverage.Analyzer, dir string, max int) (progs []Program, truncated bool) {
	if dir == "" {
		dir = "/probe"
	}
	add := func(p Program) {
		progs = append(progs, p)
	}

	// Untested open flags: open a scratch file with each one.
	if rep := an.InputReport("open", "flags"); rep != nil {
		for _, label := range rep.Untested() {
			bits, ok := sys.EncodeOpenFlags([]string{label})
			if !ok {
				continue
			}
			flags := bits
			switch label {
			case "O_WRONLY", "O_RDWR":
				// access modes stand alone
			case "O_DIRECTORY", "O_TMPFILE", "O_PATH":
				// directory-target flags probe the directory itself
			default:
				flags |= sys.O_CREAT
			}
			target := dir + "/flagprobe"
			if bits&(sys.O_DIRECTORY|sys.O_TMPFILE|sys.O_PATH) != 0 {
				target = dir
			}
			if bits&sys.O_TMPFILE != 0 {
				flags |= sys.O_RDWR
			}
			add(Program{Calls: []Call{
				openCall(0, target, flags, 0o644),
				{Result: -1, Name: "close", Args: []Arg{{Kind: KindResult, Ref: 0}}},
			}})
		}
	}

	// Untested numeric partitions: probe the bucket's boundary value.
	numeric := []struct {
		syscall, arg string
		limit        int64 // largest boundary worth probing
		build        func(size int64) Program
	}{
		{"write", "count", 1 << 26, func(size int64) Program {
			return Program{Calls: []Call{
				openCall(0, dir+"/wprobe", sys.O_CREAT|sys.O_RDWR, 0o644),
				{Result: -1, Name: "write", Args: []Arg{
					{Kind: KindResult, Ref: 0}, {Kind: KindData, DataLen: 2},
					{Kind: KindConst, Const: size}}},
				{Result: -1, Name: "close", Args: []Arg{{Kind: KindResult, Ref: 0}}},
			}}
		}},
		{"read", "count", 1 << 26, func(size int64) Program {
			return Program{Calls: []Call{
				openCall(0, dir+"/rprobe", sys.O_CREAT|sys.O_RDWR, 0o644),
				{Result: -1, Name: "read", Args: []Arg{
					{Kind: KindResult, Ref: 0}, {Kind: KindData},
					{Kind: KindConst, Const: size}}},
				{Result: -1, Name: "close", Args: []Arg{{Kind: KindResult, Ref: 0}}},
			}}
		}},
		{"truncate", "length", 1 << 33, func(size int64) Program {
			return Program{Calls: []Call{
				openCall(0, dir+"/tprobe", sys.O_CREAT|sys.O_WRONLY, 0o644),
				{Result: -1, Name: "close", Args: []Arg{{Kind: KindResult, Ref: 0}}},
				{Result: -1, Name: "truncate", Args: []Arg{
					{Kind: KindString, Str: dir + "/tprobe"},
					{Kind: KindConst, Const: size}}},
			}}
		}},
		{"setxattr", "size", 1 << 16, func(size int64) Program {
			return Program{Calls: []Call{
				openCall(0, dir+"/xprobe", sys.O_CREAT|sys.O_WRONLY, 0o644),
				{Result: -1, Name: "close", Args: []Arg{{Kind: KindResult, Ref: 0}}},
				{Result: -1, Name: "setxattr", Args: []Arg{
					{Kind: KindString, Str: dir + "/xprobe"},
					{Kind: KindString, Str: "user.probe"},
					{Kind: KindData, DataLen: 2},
					{Kind: KindConst, Const: size},
					{Kind: KindConst, Const: 0}}},
			}}
		}},
	}
	for _, n := range numeric {
		rep := an.InputReport(n.syscall, n.arg)
		if rep == nil {
			continue
		}
		for _, label := range rep.Untested() {
			size, ok := partition.NumericValue(label)
			if !ok || size < 0 || size > n.limit {
				continue
			}
			add(n.build(size))
		}
	}

	// Untested lseek whence values.
	if rep := an.InputReport("lseek", "whence"); rep != nil {
		for _, label := range rep.Untested() {
			w := whenceValue(label)
			if w < 0 {
				continue
			}
			add(Program{Calls: []Call{
				openCall(0, dir+"/sprobe", sys.O_CREAT|sys.O_RDWR, 0o644),
				{Result: -1, Name: "write", Args: []Arg{
					{Kind: KindResult, Ref: 0}, {Kind: KindData, DataLen: 2},
					{Kind: KindConst, Const: 4096}}},
				{Result: -1, Name: "lseek", Args: []Arg{
					{Kind: KindResult, Ref: 0},
					{Kind: KindConst, Const: 16},
					{Kind: KindConst, Const: int64(w)}}},
				{Result: -1, Name: "close", Args: []Arg{{Kind: KindResult, Ref: 0}}},
			}})
		}
	}
	if max > 0 && len(progs) > max {
		progs = progs[:max]
		truncated = true
	}
	return progs, truncated
}

func openCall(result int, path string, flags int, mode uint32) Call {
	return Call{
		Result: result,
		Name:   "openat",
		Args: []Arg{
			{Kind: KindConst, Const: sys.AT_FDCWD},
			{Kind: KindString, Str: path},
			{Kind: KindConst, Const: int64(flags)},
			{Kind: KindConst, Const: int64(mode)},
		},
	}
}

func whenceValue(label string) int {
	for i, name := range sys.WhenceNames {
		if name == label {
			return i
		}
	}
	return -1
}
