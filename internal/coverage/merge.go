package coverage

import (
	"fmt"
	"sort"
)

// Merge folds another analyzer's counts into a. Both analyzers must have
// been built with identical Options (same variant merging, same caps, same
// syscall table); b is left untouched. Counts are purely additive, so
// merging shard analyzers in shard order reproduces exactly the Snapshot a
// single serial analyzer would have produced over the union of the shards'
// event streams.
//
// Two tracked quantities are cap-bounded rather than purely additive and
// merge deterministically but only approximately once a cap saturates:
//
//   - identifier sets: the merged cardinality is a.card + b.card minus the
//     overlap of the *retained* value sets, which undercounts dropped
//     duplicates only after the IdentifierCap has been exceeded;
//   - bit combinations: b's labels are inserted in sorted order until the
//     CombinationCap fills, so which labels survive is deterministic but
//     can differ from a serial run's arrival order.
//
// Neither quantity is part of Snapshot, so snapshot equivalence between
// serial and sharded runs is unaffected.
func (a *Analyzer) Merge(b *Analyzer) error {
	if b == nil {
		return nil
	}
	if a == b {
		return fmt.Errorf("coverage: cannot merge analyzer with itself")
	}
	if a.opts != b.opts {
		return fmt.Errorf("coverage: cannot merge analyzers with different options: %+v vs %+v", a.opts, b.opts)
	}

	a.analyzed += b.analyzed
	a.skipped += b.skipped

	for k, bc := range b.inputs {
		ac := a.inputs[k]
		if ac == nil {
			ac = &argCounter{idx: bc.idx, labels: bc.labels, order: bc.order, dense: a.denseFor(len(bc.dense))}
			a.inputs[k] = ac
			a.addName(k.syscall)
		}
		for ord, n := range bc.dense {
			ac.dense[ord] += n
		}
	}

	for name, bc := range b.outputs {
		ac := a.outputs[name]
		if ac == nil {
			ac = &outputCounter{out: bc.out, dense: a.denseFor(len(bc.dense))}
			a.outputs[name] = ac
			a.addName(name)
		}
		for ord, n := range bc.dense {
			ac.dense[ord] += n
		}
		if len(bc.extra) > 0 {
			ac.extra = mergeCounts(ac.extra, bc.extra)
		}
	}

	for k := range b.combos.All {
		a.combos.All[k] += b.combos.All[k]
		a.combos.Rdonly[k] += b.combos.Rdonly[k]
	}

	for k, bm := range b.bitCombos {
		am := a.bitCombos[k]
		if am == nil {
			am = make(map[string]int64, len(bm))
			a.bitCombos[k] = am
		}
		for _, label := range sortedKeys(bm) {
			if _, seen := am[label]; !seen && len(am) >= a.opts.CombinationCap {
				continue
			}
			am[label] += bm[label]
		}
	}

	for k, bc := range b.idents {
		ac := a.idents[k]
		if ac == nil {
			ac = &identCounter{values: make(map[string]int64, len(bc.values)), cap: a.opts.IdentifierCap}
			a.idents[k] = ac
		}
		var overlap int64
		for _, v := range sortedKeys(bc.values) {
			if _, seen := ac.values[v]; seen {
				overlap++
				ac.values[v] += bc.values[v]
			} else if len(ac.values) < ac.cap {
				ac.values[v] = bc.values[v]
			}
		}
		ac.card += bc.card - overlap
	}

	return nil
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
