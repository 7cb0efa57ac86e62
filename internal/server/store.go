package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"iocov/internal/coverage"
)

// storeStripes is the lock-striping fanout. Sessions land on stripes
// round-robin, so up to storeStripes merges proceed without contending on
// one global mutex; reads fold the stripes back together through the
// byte-identical Analyzer.Merge contract.
const storeStripes = 8

// Store is the daemon's global coverage state, striped: each stripe holds
// its own live analyzer under its own mutex, and a completed session is
// folded into exactly one stripe. Because Merge is purely additive,
// re-folding the stripes into one analyzer reproduces byte-for-byte what a
// single global analyzer would hold — the same contract that lets shards
// merge in any order — so striping is invisible in every report. A
// checkpoint restored at startup is loaded into stripe 0's analyzer, so it
// is folded like any session.
type Store struct {
	// opts and maxNumeric are fixed at construction.
	opts       coverage.Options
	maxNumeric int

	// next assigns sessions to stripes round-robin.
	next    atomic.Uint64
	stripes [storeStripes]storeStripe

	// folds recycles Report's scratch analyzers: each is Reset once its
	// snapshot is built, which shares nothing with it.
	folds sync.Pool
}

// storeStripe is one lock shard of the store.
type storeStripe struct {
	mu       sync.Mutex
	live     *coverage.Analyzer // guarded by mu
	sessions int64              // guarded by mu
}

// NewStore builds an empty store. maxNumeric is the numeric-domain
// truncation applied to reports (0 means the default 34-bucket window).
func NewStore(opts coverage.Options, maxNumeric int) *Store {
	s := &Store{opts: opts, maxNumeric: maxNumeric}
	for i := range s.stripes {
		s.stripes[i].live = coverage.NewAnalyzer(opts)
	}
	return s
}

// Options returns the analyzer options sessions must be built with.
func (s *Store) Options() coverage.Options { return s.opts }

// MergeSession folds one completed session's analyzer into the global
// state, locking only the session's round-robin stripe. The session
// analyzer must have been built with the store's options; it is left
// untouched and must not be used concurrently with this call.
func (s *Store) MergeSession(an *coverage.Analyzer) error {
	st := &s.stripes[s.next.Add(1)%storeStripes]
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.live.Merge(an); err != nil {
		return err
	}
	st.sessions++
	return nil
}

// Sessions returns how many sessions have been merged since start (not
// counting sessions folded into a restored checkpoint).
func (s *Store) Sessions() int64 {
	var n int64
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += st.sessions
		st.mu.Unlock()
	}
	return n
}

// Totals returns the global analyzed/skipped event counts, including the
// restored checkpoint's.
func (s *Store) Totals() (analyzed, skipped int64) {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		analyzed += st.live.Analyzed()
		skipped += st.live.Skipped()
		st.mu.Unlock()
	}
	return analyzed, skipped
}

// Report builds the global coverage snapshot: the stripes folded into one
// scratch analyzer (each stripe locked only while it is being absorbed).
// The scratch fold goes through Analyzer.Merge, so the result is
// byte-identical to what a single unstriped analyzer would have reported
// over the same sessions. The scratch analyzer comes from a pool and goes
// back to it Reset.
func (s *Store) Report() *coverage.Snapshot {
	fold, ok := s.folds.Get().(*coverage.Analyzer)
	if !ok {
		fold = coverage.NewAnalyzer(s.opts)
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		err := fold.Merge(st.live)
		st.mu.Unlock()
		if err != nil {
			// Unreachable: every stripe shares the scratch analyzer's
			// options by construction.
			panic(fmt.Sprintf("server: stripe fold: %v", err))
		}
	}
	snap := fold.Snapshot(s.maxNumeric)
	fold.Reset()
	s.folds.Put(fold)
	return snap
}

// Restore loads a checkpoint file written by WriteCheckpoint into stripe
// 0. A missing file is a clean start, not an error; a checkpoint the
// store's analyzers could not have written is corrupt, and the store is
// left unchanged.
func (s *Store) Restore(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := coverage.LoadSnapshot(f)
	if err != nil {
		return fmt.Errorf("server: corrupt checkpoint %s: %w", path, err)
	}
	restored := coverage.NewAnalyzer(s.opts)
	if err := restored.Restore(snap); err != nil {
		return fmt.Errorf("server: corrupt checkpoint %s: %w", path, err)
	}
	st := &s.stripes[0]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.live.Merge(restored)
}

// WriteCheckpoint atomically persists the current Report to path: the
// snapshot is written to a temporary file in the same directory and
// renamed into place, so a crash mid-write never corrupts the previous
// checkpoint. The persisted bytes are exactly what /report serves, which
// is what makes restart-then-report byte-identical.
func (s *Store) WriteCheckpoint(path string) error {
	snap := s.Report()
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(tmp); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
