package evolve

import (
	"math/rand"
	"strconv"
	"strings"

	"iocov/internal/partition"
	"iocov/internal/sys"
	"iocov/internal/syz"
)

// Targeted probes: nextGeneration derives one candidate program per
// uncovered reachable input partition, constructed directly from the
// partition's domain label. They are the loop's exploitation arm — each
// probe hits its partition on the first try, so coverage of a targetable
// space converges in one generation once the partition becomes wanted.

// probe builds a program that exercises domain ordinal ord of the target's
// space, or ok=false when the space has no direct construction (output
// spaces are reached through exploration, not targeted probing).
func (t *target) probe(ord int, dir string) (syz.Program, bool) {
	if t.space.Arg == "" {
		return syz.Program{}, false
	}
	label := t.labels[ord]
	switch t.space {
	case Space{Syscall: "open", Arg: "flags"}:
		return openFlagProbe(label, dir)
	case Space{Syscall: "open", Arg: "mode"}:
		return openModeProbe(label, dir)
	case Space{Syscall: "read", Arg: "count"}:
		return countProbe("read", label, dir)
	case Space{Syscall: "write", Arg: "count"}:
		return countProbe("write", label, dir)
	case Space{Syscall: "read", Arg: "pos"}:
		return posProbe("pread64", label, dir)
	case Space{Syscall: "write", Arg: "pos"}:
		return posProbe("pwrite64", label, dir)
	}
	return syz.Program{}, false
}

// openFlagProbe opens a scratch target with the named flag set. The invalid
// access mode has no flag name to encode, so it is constructed directly
// from the reserved 0b11 accmode bit pattern.
func openFlagProbe(label, dir string) (syz.Program, bool) {
	var flags int
	switch label {
	case sys.AccModeInvalidName:
		flags = sys.O_ACCMODE | sys.O_CREAT
	case "O_WRONLY", "O_RDWR":
		bits, ok := sys.EncodeOpenFlags([]string{label})
		if !ok {
			return syz.Program{}, false
		}
		flags = bits // access modes stand alone
	default:
		bits, ok := sys.EncodeOpenFlags([]string{label})
		if !ok {
			return syz.Program{}, false
		}
		flags = bits | sys.O_CREAT
	}
	target := dir + "/flagprobe"
	if flags&(sys.O_DIRECTORY|sys.O_TMPFILE|sys.O_PATH) != 0 {
		// directory-target flags probe the directory itself
		target = dir
		flags &^= sys.O_CREAT
	}
	if flags&sys.O_TMPFILE != 0 {
		flags |= sys.O_RDWR
	}
	return syz.Program{Calls: []syz.Call{
		openAt(0, target, int64(flags), 0o644),
		closeCall(0),
	}}, true
}

// openModeProbe creates a scratch file carrying exactly the named mode bit
// (or a zero mode): the mode argument is traced raw, so the partition is
// hit whether or not the open succeeds.
func openModeProbe(label, dir string) (syz.Program, bool) {
	var mode int64
	if label != partition.LabelZero {
		found := false
		for _, b := range sys.ModeBitNames {
			if b.Name == label {
				mode, found = int64(b.Bit), true
			}
		}
		if !found {
			return syz.Program{}, false
		}
	}
	return syz.Program{Calls: []syz.Call{
		openAt(0, dir+"/modeprobe_"+label, sys.O_CREAT|sys.O_RDWR, mode),
		closeCall(0),
	}}, true
}

// countProbe reads or writes a buffer whose clamped length lands in the
// labeled bucket. Labels beyond the executor's arena bound are the
// irreducible floor and never become probes (the layout filters them).
func countProbe(call, label, dir string) (syz.Program, bool) {
	size, ok := partition.NumericValue(label)
	if !ok || size > syz.MaxDataLen {
		return syz.Program{}, false
	}
	return syz.Program{Calls: []syz.Call{
		openAt(0, dir+"/countprobe", sys.O_CREAT|sys.O_RDWR, 0o644),
		{Result: -1, Name: call, Args: []syz.Arg{
			{Kind: syz.KindResult, Ref: 0},
			{Kind: syz.KindData, DataLen: 2},
			{Kind: syz.KindConst, Const: size}}},
		closeCall(0),
	}}, true
}

// posProbe issues a pread64/pwrite64 at the labeled offset. pos is traced
// raw — emitted even when the call fails — and the simulated filesystem is
// sparse, so the whole offset domain up to 2^62 is reachable.
func posProbe(call, label, dir string) (syz.Program, bool) {
	pos, ok := partition.NumericValue(label)
	if !ok {
		return syz.Program{}, false
	}
	return syz.Program{Calls: []syz.Call{
		openAt(0, dir+"/posprobe", sys.O_CREAT|sys.O_RDWR, 0o644),
		{Result: -1, Name: call, Args: []syz.Arg{
			{Kind: syz.KindResult, Ref: 0},
			{Kind: syz.KindData, DataLen: 2},
			{Kind: syz.KindConst, Const: 1},
			{Kind: syz.KindConst, Const: pos}}},
		closeCall(0),
	}}, true
}

func openAt(result int, path string, flags, mode int64) syz.Call {
	return syz.Call{
		Result: result,
		Name:   "openat",
		Args: []syz.Arg{
			{Kind: syz.KindConst, Const: sys.AT_FDCWD},
			{Kind: syz.KindString, Str: path},
			{Kind: syz.KindConst, Const: flags},
			{Kind: syz.KindConst, Const: mode},
		},
	}
}

func closeCall(ref int) syz.Call {
	return syz.Call{Result: -1, Name: "close",
		Args: []syz.Arg{{Kind: syz.KindResult, Ref: ref}}}
}

// Exploration: random mutants of corpus members reach the partitions no
// targeted probe constructs (output errnos, interactions between calls).
// Each mutant's RNG is seeded per (generation, index) by the caller, so the
// operator sequence is a pure function of the loop seed.

// mutate clones a corpus parent and applies one random operator.
//
//iocov:deterministic
func mutate(rng *rand.Rand, corpus []syz.Program, dir string) syz.Program {
	p := corpus[rng.Intn(len(corpus))].Clone()
	switch rng.Intn(6) {
	case 0:
		perturbConst(rng, &p)
	case 1:
		flipFlagBit(rng, &p)
	case 2:
		splice(rng, &p, corpus[rng.Intn(len(corpus))])
	case 3:
		dupCall(rng, &p)
	case 4:
		dropCall(rng, &p)
	default:
		retargetPath(rng, &p, dir)
	}
	return p
}

// perturbConst nudges one numeric constant: boundary steps move a value
// across partition edges (+-1), shifts move it across power-of-two buckets,
// and negation reaches the "<0" boundary partitions.
func perturbConst(rng *rand.Rand, p *syz.Program) {
	type loc struct{ call, arg int }
	var locs []loc
	for ci := range p.Calls {
		for ai := range p.Calls[ci].Args {
			if p.Calls[ci].Args[ai].Kind == syz.KindConst {
				locs = append(locs, loc{ci, ai})
			}
		}
	}
	if len(locs) == 0 {
		return
	}
	l := locs[rng.Intn(len(locs))]
	v := &p.Calls[l.call].Args[l.arg].Const
	switch rng.Intn(5) {
	case 0:
		*v++
	case 1:
		*v--
	case 2:
		*v <<= 1
	case 3:
		*v = -*v
	default:
		*v = int64(1) << uint(rng.Intn(partition.MaxLog2+1))
	}
}

// flipFlagBit toggles one named open flag on an open/openat call's flags
// argument.
func flipFlagBit(rng *rand.Rand, p *syz.Program) {
	for _, ci := range rng.Perm(len(p.Calls)) {
		c := &p.Calls[ci]
		var fi int
		switch c.Name {
		case "open":
			fi = 1
		case "openat":
			fi = 2
		default:
			continue
		}
		if fi >= len(c.Args) || c.Args[fi].Kind != syz.KindConst {
			return
		}
		bit := sys.OpenFlagNames[rng.Intn(len(sys.OpenFlagNames))].Bit
		c.Args[fi].Const ^= int64(bit)
		return
	}
}

// splice is the crossover operator: p keeps a prefix of its own calls and
// adopts a suffix of another parent's. Result references that dangle after
// the cut resolve to invalid descriptors at execution time, which is itself
// a source of errno coverage.
func splice(rng *rand.Rand, p *syz.Program, q syz.Program) {
	if len(p.Calls) == 0 || len(q.Calls) == 0 {
		return
	}
	i := 1 + rng.Intn(len(p.Calls))
	j := rng.Intn(len(q.Calls))
	merged := append(p.Calls[:i:i], q.Clone().Calls[j:]...)
	p.Calls = merged
}

// dupCall repeats one call (double close, double truncate — classic errno
// territory).
func dupCall(rng *rand.Rand, p *syz.Program) {
	if len(p.Calls) == 0 {
		return
	}
	i := rng.Intn(len(p.Calls))
	c := p.Calls[i]
	c.Args = append([]syz.Arg(nil), c.Args...)
	p.Calls = append(p.Calls[:i+1], append([]syz.Call{c}, p.Calls[i+1:]...)...)
}

// dropCall removes one call, never the leading open that binds r0.
func dropCall(rng *rand.Rand, p *syz.Program) {
	if len(p.Calls) < 3 {
		return
	}
	i := 1 + rng.Intn(len(p.Calls)-1)
	p.Calls = append(p.Calls[:i], p.Calls[i+1:]...)
}

// retargetPath points one path argument at a different file under the
// working directory (or a missing one — ENOENT coverage).
func retargetPath(rng *rand.Rand, p *syz.Program, dir string) {
	type loc struct{ call, arg int }
	var locs []loc
	for ci := range p.Calls {
		for ai := range p.Calls[ci].Args {
			a := p.Calls[ci].Args[ai]
			if a.Kind == syz.KindString && strings.HasPrefix(a.Str, "/") {
				locs = append(locs, loc{ci, ai})
			}
		}
	}
	if len(locs) == 0 {
		return
	}
	l := locs[rng.Intn(len(locs))]
	p.Calls[l.call].Args[l.arg].Str = dir + "/m" + strconv.Itoa(rng.Intn(8))
}
