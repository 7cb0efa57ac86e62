package coverage

// Reset returns the analyzer to its freshly-constructed state while
// retaining its allocations: every map keeps its buckets (clear preserves
// capacity) and the dense counter slices are zeroed and parked in a
// per-length freelist that the recompile step draws from. A Reset analyzer
// is observationally identical to NewAnalyzer(same options) — same counter
// set, same snapshot bytes for the same event stream — which is what lets
// the harness worker arena and the ingest daemon's session pool recycle
// analyzers without violating the byte-identical merge contract.
func (a *Analyzer) Reset() {
	if a.freeDense == nil {
		a.freeDense = make(map[int][][]int64)
	}
	for _, c := range a.inputs {
		clear(c.dense)
		a.freeDense[len(c.dense)] = append(a.freeDense[len(c.dense)], c.dense)
	}
	clear(a.inputs)
	for _, c := range a.outputs {
		clear(c.dense)
		a.freeDense[len(c.dense)] = append(a.freeDense[len(c.dense)], c.dense)
	}
	clear(a.outputs)
	a.names = a.names[:0]
	clear(a.idents)
	a.combos = comboCounts{}
	clear(a.bitCombos)
	// The compiled dispatch entries point at the counters retired above, so
	// they must go too, with the slots that copy them; recompilation on next
	// sight rebuilds them against the recycled dense slices.
	clear(a.compiled)
	a.slots = [dispatchSlots]dispatchSlot{}
	a.analyzed, a.skipped = 0, 0
}

// Reset unbinds the batch's per-stream dictionary dispatch cache so it can
// serve a new decode stream against the same (Reset) analyzer. Stale
// compiled-entry pointers are dropped eagerly: they belong to the
// analyzer's previous life.
func (b *Batch) Reset() {
	clear(b.byID)
	b.byID = b.byID[:0]
}
