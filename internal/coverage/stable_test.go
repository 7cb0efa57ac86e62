package coverage

import (
	"fmt"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/trace"
)

// TestRenderManyStable renders each map-backed view many times from one
// input and requires the same bytes every time. Go randomizes the order of
// every map range, so a view that leaks map order (an append never sorted,
// a first-wins insert under a cap, a last-wins overwrite) differs between
// two renders. Each case
// is the one a seeded mutation of that view showed no other test catches.
func TestRenderManyStable(t *testing.T) {
	// Twelve open flag combinations seen once each: the rows tie on count,
	// so only the label tie-break orders them.
	combos := []int64{0, sys.O_WRONLY, sys.O_RDWR,
		sys.O_WRONLY | sys.O_CREAT, sys.O_RDWR | sys.O_CREAT, sys.O_WRONLY | sys.O_APPEND,
		sys.O_RDWR | sys.O_TRUNC, sys.O_WRONLY | sys.O_CREAT | sys.O_TRUNC,
		sys.O_RDWR | sys.O_CREAT | sys.O_EXCL, sys.O_WRONLY | sys.O_SYNC,
		sys.O_RDWR | sys.O_DIRECT, sys.O_RDONLY | sys.O_NOFOLLOW}
	comboOpts := Options{MergeVariants: true, TrackCombinations: true, CombinationCap: 4}
	comboAnalyzer := func(flags []int64) *Analyzer {
		a := NewAnalyzer(comboOpts)
		for i, f := range flags {
			a.Add(openEvent(f, 0o644, int64(3+i), sys.OK))
		}
		return a
	}
	pathOpen := func(p string) trace.Event {
		return withArgs(trace.Event{Name: "open", Path: p, PID: 1,
			Ret: 3}, strArgs{{"filename", p}}, numArgs{{"flags", 0}, {"mode", 0}})
	}
	identOpts := Options{MergeVariants: true, TrackIdentifiers: true, IdentifierCap: 8}

	// DiffSnapshot: the first snapshot covers every open flag combination
	// above and a dozen errnos that the second never sees.
	first := NewAnalyzer(Options{MergeVariants: true, TrackCombinations: true})
	for i, f := range combos {
		first.Add(openEvent(f, 0o644, int64(3+i), sys.OK))
	}
	for _, e := range []sys.Errno{sys.ENOENT, sys.EACCES, sys.EEXIST, sys.EISDIR, sys.ENOTDIR,
		sys.ELOOP, sys.EMFILE, sys.ENFILE, sys.ENOSPC, sys.EROFS, sys.EINVAL, sys.ENAMETOOLONG} {
		first.Add(openEvent(0, 0, -int64(e), e))
	}
	second := NewAnalyzer(DefaultOptions())
	second.Add(openEvent(0, 0, 3, sys.OK))
	s1, s2 := first.Snapshot(0), second.Snapshot(0)

	// Extra: read's man page documents none of these errnos, so each lands
	// in the output space's extra map.
	extra := NewAnalyzer(DefaultOptions())
	for _, e := range []sys.Errno{sys.ENOSPC, sys.EEXIST, sys.ENOENT, sys.EROFS, sys.EMFILE,
		sys.ENFILE, sys.ENOTDIR, sys.ELOOP, sys.EACCES, sys.ENAMETOOLONG} {
		extra.Add(withArgs(trace.Event{Name: "read", PID: 1,
			Ret: -int64(e), Err: e}, nil, numArgs{{"fd", 3}, {"count", 10}}))
	}

	// Opens that combined one to eight flags.
	sizes := NewAnalyzer(DefaultOptions())
	for k := 1; k <= 8; k++ {
		sizes.combos.All[k] = int64(k)
	}

	// The source retains the first eight of its ten values, /v0 to /v7.
	identSrc := NewAnalyzer(identOpts)
	for i := 0; i < 10; i++ {
		identSrc.Add(pathOpen(fmt.Sprintf("/v%d", i)))
	}
	identLater := NewAnalyzer(identOpts)
	for i := 0; i < 4; i++ {
		identLater.Add(pathOpen(fmt.Sprintf("/v%d", i)))
	}

	cases := []struct {
		name   string
		render func(t *testing.T) string
	}{
		{"DiffSnapshot", func(*testing.T) string { return fmt.Sprint(s1.DiffSnapshot(s2)) }},
		{"Combinations", func(*testing.T) string { return fmt.Sprint(first.Combinations("open", "flags")) }},
		{"OutputReport extra", func(*testing.T) string { return fmt.Sprint(extra.OutputReport("read").Extra) }},
		{"MaxComboSize", func(*testing.T) string { return fmt.Sprint(sizes.MaxComboSize()) }},
		// Two of the four labels fit under the cap: which two is fixed by
		// label order, not by the source's map order.
		{"Merge at the combination cap", func(t *testing.T) string {
			a := comboAnalyzer(combos[8:10])
			if err := a.Merge(comboAnalyzer(combos[:4])); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(a.Combinations("open", "flags"))
		}},
		// One slot is left for the source's eight values; whether the one
		// kept is among /v0 to /v3 decides the overlap of a later merge,
		// and so the cardinality.
		{"Merge at the identifier cap", func(t *testing.T) string {
			a := NewAnalyzer(identOpts)
			for i := 0; i < 7; i++ {
				a.Add(pathOpen(fmt.Sprintf("/a%d", i)))
			}
			if err := a.Merge(identSrc); err != nil {
				t.Fatal(err)
			}
			if err := a.Merge(identLater); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(a.IdentifierCardinality("open", "filename"))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.render(t)
			for i := 1; i < 20; i++ {
				if got := tc.render(t); got != want {
					t.Fatalf("render %d differs from the first:\n got %s\nwant %s", i, got, want)
				}
			}
		})
	}
}
