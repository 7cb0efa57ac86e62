package coverage

import (
	"bytes"
	"testing"

	"iocov/internal/sys"
)

// resetStream is a small event mix exercising inputs, outputs, an
// undocumented errno (extra map), combos, identifiers, and out-of-scope
// skips — every piece of state Reset must wipe.
func resetStream(a *Analyzer) {
	a.Add(openEvent(int64(sys.O_WRONLY|sys.O_CREAT), 0o644, 4, sys.OK))
	a.Add(openEvent(0, 0, -1, sys.ENOENT))
	a.Add(writeEvent(4096, 4096, sys.OK))
	a.Add(writeEvent(0, -1, sys.Errno(250))) // outside the documented universe
	ev := writeEvent(1, 1, sys.OK)
	ev.Name = "not_a_syscall"
	a.Add(ev)
}

func analyzerBytes(t *testing.T, a *Analyzer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Snapshot(0).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResetMatchesFresh is the pool-correctness contract: an analyzer that
// lived a full previous life and was Reset must be byte-identical, over any
// subsequent stream, to a freshly constructed analyzer.
func TestResetMatchesFresh(t *testing.T) {
	opts := Options{MergeVariants: true, TrackIdentifiers: true, TrackCombinations: true}
	reused := NewAnalyzer(opts)
	resetStream(reused)
	resetStream(reused)
	_ = analyzerBytes(t, reused) // a render before Reset must leave no state behind
	reused.Reset()

	fresh := NewAnalyzer(opts)
	resetStream(reused)
	resetStream(fresh)

	got, want := analyzerBytes(t, reused), analyzerBytes(t, fresh)
	if !bytes.Equal(got, want) {
		t.Errorf("reused snapshot differs from fresh:\nreused: %s\nfresh:  %s", got, want)
	}
	if reused.Analyzed() != fresh.Analyzed() || reused.Skipped() != fresh.Skipped() {
		t.Errorf("totals: reused %d/%d fresh %d/%d",
			reused.Analyzed(), reused.Skipped(), fresh.Analyzed(), fresh.Skipped())
	}
	if got, want := reused.DistinctCombinations("open", "flags"), fresh.DistinctCombinations("open", "flags"); got != want {
		t.Errorf("combinations: reused %d fresh %d", got, want)
	}
	if got, want := reused.IdentifierCardinality("open", "path"), fresh.IdentifierCardinality("open", "path"); got != want {
		t.Errorf("identifier cardinality: reused %d fresh %d", got, want)
	}
}

// TestResetEmptySnapshot: immediately after Reset the analyzer reports the
// empty snapshot — no phantom spaces survive from the previous life.
func TestResetEmptySnapshot(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	resetStream(a)
	a.Reset()
	empty := NewAnalyzer(DefaultOptions())
	if got, want := analyzerBytes(t, a), analyzerBytes(t, empty); !bytes.Equal(got, want) {
		t.Errorf("post-Reset snapshot not empty:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestResetMergeTarget: a Reset analyzer used as a merge *target* behaves
// like a fresh one (the striped store's scratch-fold path).
func TestResetMergeTarget(t *testing.T) {
	src := NewAnalyzer(DefaultOptions())
	resetStream(src)

	reused := NewAnalyzer(DefaultOptions())
	resetStream(reused)
	reused.Reset()
	if err := reused.Merge(src); err != nil {
		t.Fatal(err)
	}
	fresh := NewAnalyzer(DefaultOptions())
	if err := fresh.Merge(src); err != nil {
		t.Fatal(err)
	}
	if got, want := analyzerBytes(t, reused), analyzerBytes(t, fresh); !bytes.Equal(got, want) {
		t.Errorf("merge into reused differs from merge into fresh:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestBatchReset: a Reset batch over a Reset analyzer re-resolves ordinals
// for the new stream instead of dispatching through stale entries.
func TestBatchReset(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	b := a.NewBatch()
	ev := openEvent(0, 0, 3, sys.OK)
	b.Add(&ev, 0) // "open" under ordinal 0
	a.Reset()
	b.Reset()

	// New stream: ordinal 0 is now "write"; a stale cache would count it as open.
	wev := writeEvent(64, 64, sys.OK)
	b.Add(&wev, 0)
	if a.OutputReport("open") != nil {
		t.Error("stale batch entry dispatched ordinal 0 to open")
	}
	if c := a.OutputReport("write"); c == nil || c.Count("OK:2^6") == 0 {
		t.Errorf("write output not counted after Reset; counter = %+v", c)
	}
}
