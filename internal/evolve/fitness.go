// Package evolve closes IOCov's feedback loop generatively: where
// syz.Suggest prints the probe table's programs for a human, evolve runs a
// coverage-guided evolutionary search that drives a corpus of syzkaller-style
// programs toward zero untested input partitions (§5's "what coverage is
// missing" turned into an optimization objective).
//
// The loop is deterministic end to end: candidate programs are derived from
// the configured seed through per-candidate splitmix64 RNGs (no wall clock,
// no global RNG), candidates are accepted by a serial greedy fold in
// generation order, and the accumulated analyzer obeys the byte-identical
// merge contract — replaying the final corpus serially reproduces the
// final snapshot exactly.
package evolve

import (
	"fmt"

	"iocov/internal/coverage"
	"iocov/internal/metrics"
	"iocov/internal/partition"
	"iocov/internal/sysspec"
	"iocov/internal/syz"
)

// Space names one coverage space the loop optimizes: an input argument
// space (Syscall + Arg) or a syscall's output space (Arg == "").
type Space struct {
	Syscall string
	Arg     string
}

func (s Space) String() string {
	if s.Arg == "" {
		return s.Syscall + ".ret"
	}
	return s.Syscall + "." + s.Arg
}

// DefaultTargets is the evaluation's objective: the open/read/write input
// spaces the paper's Figures 2-3 measure, plus their output spaces. Output
// bits count toward candidate novelty (a program that only reaches a new
// errno is still worth keeping) but not toward the untested-inputs success
// metric.
func DefaultTargets() []Space {
	return []Space{
		{Syscall: "open", Arg: "flags"},
		{Syscall: "open", Arg: "mode"},
		{Syscall: "read", Arg: "count"},
		{Syscall: "read", Arg: "pos"},
		{Syscall: "write", Arg: "count"},
		{Syscall: "write", Arg: "pos"},
		{Syscall: "open"},
		{Syscall: "read"},
		{Syscall: "write"},
	}
}

// target is one compiled Space: its domain labels, its slice of the global
// hit bitset, and its irreducible floor.
type target struct {
	space Space
	// labels is the space's declared domain in canonical order; a hit on
	// ordinal i sets global bit offset+i.
	labels []string
	offset int
	// probe is the space's row of the syz probe table, nil for output
	// spaces and for input spaces the table does not serve.
	probe *syz.Probe
	// floor marks domain ordinals no program can reach: the labels the
	// probe table declines. They are excluded from the untested metric.
	floor []bool
}

// layout assigns every target space a contiguous range of a global bitset,
// so a candidate's coverage novelty is a handful of word-wise ANDNOTs.
type layout struct {
	targets []target
	bits    int
}

func newLayout(spaces []Space) (*layout, error) {
	table := sysspec.NewTable()
	lay := &layout{}
	for _, s := range spaces {
		spec := table.Spec(s.Syscall)
		if spec == nil {
			return nil, fmt.Errorf("evolve: unknown syscall %q", s.Syscall)
		}
		var labels []string
		if s.Arg == "" {
			labels = partition.NewOutputIndexer(spec).Domain()
		} else {
			scheme := ""
			for _, a := range spec.TrackedArgs() {
				if a.Name == s.Arg {
					scheme = a.Scheme
				}
			}
			if scheme == "" {
				return nil, fmt.Errorf("evolve: %s has no tracked argument %q", s.Syscall, s.Arg)
			}
			in := partition.ForScheme(scheme)
			if in == nil {
				return nil, fmt.Errorf("evolve: argument %s is not partitioned", s)
			}
			labels = in.Domain()
		}
		t := target{space: s, labels: labels, offset: lay.bits,
			probe: syz.ProbeFor(s.Syscall, s.Arg), floor: make([]bool, len(labels))}
		if t.probe != nil {
			for i, label := range labels {
				_, ok := t.probe.Value(label)
				t.floor[i] = !ok
			}
		}
		lay.targets = append(lay.targets, t)
		lay.bits += len(labels)
	}
	return lay, nil
}

// hitsOf reads a candidate analyzer's covered ordinals into a fresh global
// bitset.
func (l *layout) hitsOf(an *coverage.Analyzer) []uint64 {
	bs := newBitset(l.bits)
	var scratch []int
	for ti := range l.targets {
		t := &l.targets[ti]
		scratch = scratch[:0]
		if t.space.Arg == "" {
			scratch = an.OutputCoveredOrdinals(t.space.Syscall, scratch)
		} else {
			scratch = an.InputCoveredOrdinals(t.space.Syscall, t.space.Arg, scratch)
		}
		for _, ord := range scratch {
			if ord < len(t.labels) {
				setBit(bs, t.offset+ord)
			}
		}
	}
	return bs
}

// untestedInputs counts reachable-but-unhit input partitions across the
// layout — the loop's objective function; zero means every non-floor input
// partition of every target space has been exercised.
func (l *layout) untestedInputs(covered []uint64) int {
	n := 0
	for ti := range l.targets {
		t := &l.targets[ti]
		if t.space.Arg == "" {
			continue
		}
		for ord := range t.labels {
			if !t.floor[ord] && !hasBit(covered, t.offset+ord) {
				n++
			}
		}
	}
	return n
}

// SpaceFitness is one target space's slice of a generation's fitness
// snapshot.
type SpaceFitness struct {
	Space  Space
	Domain int
	// Covered counts partitions hit so far; Floor counts irreducibly
	// unreachable partitions; Untested counts reachable-but-unhit ones
	// (Domain = Covered + Floor + Untested when no floor partition has
	// been hit, which executor-driven runs guarantee).
	Covered  int
	Floor    int
	Untested int
	// TCD is the testing-coverage deviation of the space's reachable
	// frequencies from a uniform target (input spaces only).
	TCD float64
}

// Fitness is one generation's snapshot of the loop's objective.
type Fitness struct {
	Generation int
	Inputs     []SpaceFitness
	Outputs    []SpaceFitness
	// UntestedInputs sums Untested over the input spaces — the number the
	// loop drives to zero.
	UntestedInputs int
	// NewlyHit counts global partition bits first covered this generation.
	NewlyHit   int
	Evaluated  int
	Accepted   int
	CorpusSize int
}

// fitness folds the cumulative analyzer into a generation snapshot. It
// reads the dense counters through the cheap accessors — no report
// materialization — so calling it every generation costs a few slice walks.
func (l *layout) fitness(an *coverage.Analyzer, covered []uint64, gen, newly, evaluated, accepted, corpus int) Fitness {
	f := Fitness{
		Generation: gen,
		NewlyHit:   newly,
		Evaluated:  evaluated,
		Accepted:   accepted,
		CorpusSize: corpus,
	}
	var freqs []int64
	for ti := range l.targets {
		t := &l.targets[ti]
		sf := SpaceFitness{Space: t.space, Domain: len(t.labels)}
		for ord := range t.labels {
			switch {
			case hasBit(covered, t.offset+ord):
				sf.Covered++
			case t.floor[ord]:
				sf.Floor++
			default:
				sf.Untested++
			}
		}
		if t.space.Arg == "" {
			f.Outputs = append(f.Outputs, sf)
			continue
		}
		freqs = freqs[:0]
		var ok bool
		if freqs, ok = an.InputFrequencies(t.space.Syscall, t.space.Arg, freqs); ok {
			sf.TCD = reachableTCD(freqs, t.floor)
		}
		f.Inputs = append(f.Inputs, sf)
		f.UntestedInputs += sf.Untested
	}
	return f
}

// reachableTCD computes the uniform-target TCD over a space's reachable
// (non-floor) partitions, with the target set to the mean reachable
// frequency — so a perfectly even spread scores near zero and skew scores
// high, independent of how many events have accumulated.
func reachableTCD(freqs []int64, floor []bool) float64 {
	kept := make([]int64, 0, len(freqs))
	var total int64
	for i, n := range freqs {
		if i < len(floor) && floor[i] {
			continue
		}
		kept = append(kept, n)
		total += n
	}
	if len(kept) == 0 {
		return 0
	}
	tgt := total / int64(len(kept))
	if tgt < 1 {
		tgt = 1
	}
	return metrics.UniformTCD(kept, tgt)
}
