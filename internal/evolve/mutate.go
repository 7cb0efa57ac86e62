package evolve

import (
	"math/rand"
	"strconv"
	"strings"

	"iocov/internal/partition"
	"iocov/internal/sys"
	"iocov/internal/syz"
)

// Exploration: random mutants of corpus members reach the partitions no
// targeted probe (syz.Probe) constructs (output errnos, interactions between calls).
// Each mutant's RNG is seeded per (generation, index) by the caller, so the
// operator sequence is a pure function of the loop seed.

// mutate clones a corpus parent and applies one random operator.
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
