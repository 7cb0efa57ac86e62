package coverage

import "sort"

// MergeSnapshots combines two serialized coverage snapshots additively, the
// label-keyed counterpart of Analyzer.Merge. Both snapshots must come from
// analyzers built with identical Options (same syscall table, same
// numeric-domain truncation), so every space the two share has the same
// partition domain. The result is byte-identical, once encoded with
// WriteJSON, to the snapshot a single analyzer would produce after merging
// the underlying analyzers.
//
// It is only the reference now: the daemon restores checkpoints with
// Analyzer.Restore and merges analyzers, and the tests and the benchmark
// check that path against this label merge.
//
// Nil arguments are treated as empty; the inputs are never mutated.
func MergeSnapshots(a, b *Snapshot) *Snapshot {
	if a == nil {
		a = &Snapshot{}
	}
	if b == nil {
		b = &Snapshot{}
	}
	out := &Snapshot{
		Analyzed: a.Analyzed + b.Analyzed,
		Skipped:  a.Skipped + b.Skipped,
		Inputs:   mergeSpaceLists(a.Inputs, b.Inputs),
		Outputs:  mergeSpaceLists(a.Outputs, b.Outputs),
	}
	out.OpenCombos = mergeCombos(a.OpenCombos, b.OpenCombos)
	return out
}

// mergeSpaceLists merges two space lists, preserving the canonical snapshot
// order: syscalls sorted, and within a syscall the spec's argument order.
// Both inputs follow that order already (they were produced by
// Analyzer.Snapshot), so each syscall's argument sequence is a subsequence
// of the spec order and the two sequences merge without knowing the spec.
func mergeSpaceLists(a, b []SnapshotSpace) []SnapshotSpace {
	bySyscall := func(list []SnapshotSpace) (map[string][]*SnapshotSpace, []string) {
		m := make(map[string][]*SnapshotSpace)
		var names []string
		for i := range list {
			sp := &list[i]
			if m[sp.Syscall] == nil {
				names = append(names, sp.Syscall)
			}
			m[sp.Syscall] = append(m[sp.Syscall], sp)
		}
		return m, names
	}
	am, anames := bySyscall(a)
	bm, bnames := bySyscall(b)
	names := append(append([]string(nil), anames...), bnames...)
	sort.Strings(names)
	var out []SnapshotSpace
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		for _, pair := range mergeArgOrder(am[name], bm[name]) {
			out = append(out, combineSpace(pair[0], pair[1]))
		}
	}
	return out
}

// mergeArgOrder pairs up one syscall's spaces from both lists, interleaving
// the two argument sequences while preserving both relative orders.
func mergeArgOrder(as, bs []*SnapshotSpace) [][2]*SnapshotSpace {
	inA := make(map[string]bool, len(as))
	for _, sp := range as {
		inA[sp.Arg] = true
	}
	inB := make(map[string]bool, len(bs))
	for _, sp := range bs {
		inB[sp.Arg] = true
	}
	var out [][2]*SnapshotSpace
	i, j := 0, 0
	for i < len(as) || j < len(bs) {
		switch {
		case i >= len(as):
			out = append(out, [2]*SnapshotSpace{nil, bs[j]})
			j++
		case j >= len(bs):
			out = append(out, [2]*SnapshotSpace{as[i], nil})
			i++
		case as[i].Arg == bs[j].Arg:
			out = append(out, [2]*SnapshotSpace{as[i], bs[j]})
			i, j = i+1, j+1
		case !inB[as[i].Arg]:
			out = append(out, [2]*SnapshotSpace{as[i], nil})
			i++
		case !inA[bs[j].Arg]:
			out = append(out, [2]*SnapshotSpace{nil, bs[j]})
			j++
		default:
			// Unreachable for two subsequences of one spec order; fall
			// back to the left sequence to guarantee termination.
			out = append(out, [2]*SnapshotSpace{as[i], nil})
			i++
		}
	}
	return out
}

// combineSpace adds two views of the same coverage space. Either side may be
// nil (space observed by only one snapshot).
func combineSpace(x, y *SnapshotSpace) SnapshotSpace {
	if y == nil {
		return cloneSpace(x)
	}
	if x == nil {
		return cloneSpace(y)
	}
	out := SnapshotSpace{
		Syscall: x.Syscall,
		Arg:     x.Arg,
		Class:   x.Class,
		Domain:  x.Domain,
		Counts:  mergeCounts(x.Counts, y.Counts),
	}
	// A partition is untested in the merge iff neither side counted it.
	// x.Untested is already in domain order, so filtering it keeps the
	// canonical ordering without access to the domain itself.
	for _, label := range x.Untested {
		if out.Counts.Get(label) == 0 {
			out.Untested = append(out.Untested, label)
		}
	}
	out.Covered = out.Domain - len(out.Untested)
	if len(x.Extra)+len(y.Extra) > 0 {
		out.Extra = mergeCounts(x.Extra, y.Extra)
	}
	return out
}

// cloneSpace deep-copies one space so merges never alias the inputs' rows.
func cloneSpace(sp *SnapshotSpace) SnapshotSpace {
	out := *sp
	out.Counts = mergeCounts(sp.Counts, nil)
	out.Untested = append([]string(nil), sp.Untested...)
	if len(sp.Extra) > 0 {
		out.Extra = mergeCounts(sp.Extra, nil)
	}
	return out
}

// mergeCombos adds the Table 1 flag-combination histograms.
func mergeCombos(x, y *SnapshotCombos) *SnapshotCombos {
	if x == nil && y == nil {
		return nil
	}
	out := &SnapshotCombos{All: make(map[int]int64), Rdonly: make(map[int]int64)}
	for _, c := range []*SnapshotCombos{x, y} {
		if c == nil {
			continue
		}
		for k, n := range c.All {
			out.All[k] += n
		}
		for k, n := range c.Rdonly {
			out.Rdonly[k] += n
		}
	}
	return out
}
