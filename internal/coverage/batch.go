package coverage

import "iocov/internal/trace"

// batchEntry caches one resolved dispatch decision. resolved distinguishes
// "never seen" from "seen and out of scope" (whose entry is nil).
type batchEntry struct {
	e        *compiledEntry
	resolved bool
}

// Batch is the BatchAdd-style entry point behind the daemon's batch-decode
// fast path: it feeds pre-indexed events into one Analyzer's dense
// partition counters. trace.BatchDecoder reports each record's syscall
// name as a per-stream dictionary ordinal; Batch keys the analyzer's
// compiled dispatch entries on that ordinal, so the steady-state per-event
// dispatch is one slice index instead of a string-keyed map hit — the
// events arrive pre-indexed and the hot loop never hashes a name.
//
// A Batch is bound to a single decode stream: dictionary ordinals are only
// stable within one stream, so the ingest daemon creates one Batch per
// session, next to the session's Analyzer. Like the Analyzer itself it is
// single-goroutine.
type Batch struct {
	a    *Analyzer
	byID []batchEntry
}

// NewBatch returns a batch entry point bound to the analyzer.
func (a *Analyzer) NewBatch() *Batch { return &Batch{a: a} }

// Add analyzes one decoded event. nameID is the syscall name's per-stream
// dictionary ordinal from trace.BatchDecoder.Next (-1 when the name was
// not interned, which falls back to the analyzer's by-name dispatch). The event
// is not retained.
func (b *Batch) Add(ev *trace.Event, nameID int) {
	// One unsigned comparison covers both the negative and the
	// out-of-range case.
	if uint(nameID) < uint(len(b.byID)) {
		be := &b.byID[nameID]
		if be.resolved {
			b.a.addCompiled(be.e, ev)
			return
		}
	}
	b.addSlow(ev, nameID)
}

// addSlow resolves the dispatch entry for a first-sight name (or a
// non-interned one) through the analyzer's by-name compilation path and
// caches it under the dictionary ordinal for every later event.
func (b *Batch) addSlow(ev *trace.Event, nameID int) {
	e := b.a.lookup(ev.Name)
	if nameID >= 0 {
		for len(b.byID) <= nameID {
			b.byID = append(b.byID, batchEntry{})
		}
		b.byID[nameID] = batchEntry{e: e, resolved: true}
	}
	b.a.addCompiled(e, ev)
}
