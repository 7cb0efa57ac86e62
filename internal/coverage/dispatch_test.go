package coverage

import (
	"bytes"
	"sort"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/trace"
)

// rawNames lists every raw syscall name an analyzer with opts accepts: each
// base's variants.
func rawNames(opts Options) []string {
	table := sharedTable(opts.ExtendedSyscalls)
	var names []string
	for _, base := range table.Bases() {
		names = append(names, table.Spec(base).Variants...)
	}
	return names
}

// eventFor builds an event of a raw syscall name that sets every argument
// key the name's spec tracks, so the event lands in input and output
// partitions.
func eventFor(opts Options, name string, v int64) trace.Event {
	ev := trace.Event{Name: name, PID: 1, Ret: v}
	if spec := sharedTable(opts.ExtendedSyscalls).Base(name); spec != nil {
		for _, arg := range spec.Args {
			ev.AddArg(arg.Key, v)
		}
	}
	return ev
}

// TestDispatchSlotsDistinct: the standard table's raw names occupy distinct
// dispatch slots, so a standard event stream misses the slots only on the
// first sight of each name.
func TestDispatchSlotsDistinct(t *testing.T) {
	seen := map[int]string{}
	for _, name := range rawNames(DefaultOptions()) {
		s := slotOf(name)
		if other, ok := seen[s]; ok {
			t.Errorf("%q and %q share dispatch slot %d", name, other, s)
		}
		seen[s] = name
	}
}

// TestDispatchSharedSlotOrderFree: raw names that share a slot evict each
// other on every event of an interleaved stream; the stream must still give
// the snapshot of the same events sorted by name, whether it reaches the
// analyzer through Add or through a Batch.
func TestDispatchSharedSlotOrderFree(t *testing.T) {
	opts := DefaultOptions()
	opts.ExtendedSyscalls = true
	bySlot := map[int][]string{}
	for _, name := range rawNames(opts) {
		bySlot[slotOf(name)] = append(bySlot[slotOf(name)], name)
	}
	var interleaved []trace.Event
	for _, names := range bySlot {
		if len(names) < 2 {
			continue
		}
		for i := int64(0); i < 6; i++ {
			for _, name := range names {
				interleaved = append(interleaved, eventFor(opts, name, i))
			}
		}
	}
	if len(interleaved) == 0 {
		t.Fatal("no two extended raw names share a slot; pick names that do")
	}
	sorted := append([]trace.Event(nil), interleaved...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })

	want := NewAnalyzer(opts)
	want.AddAll(sorted)
	got := NewAnalyzer(opts)
	got.AddAll(interleaved)
	viaBatch := NewAnalyzer(opts)
	b := viaBatch.NewBatch()
	for i := range interleaved {
		b.Add(&interleaved[i], -1)
	}
	wantBytes := analyzerBytes(t, want)
	for _, c := range []struct {
		path string
		a    *Analyzer
	}{{"Add", got}, {"Batch.Add", viaBatch}} {
		if !bytes.Equal(analyzerBytes(t, c.a), wantBytes) {
			t.Errorf("%s: interleaved snapshot differs from the sorted one", c.path)
		}
	}
}

// TestDispatchOutOfScopeSharesSlot: an out-of-scope name that shares a slot
// with an in-scope one is counted as skipped, however the two interleave,
// and leaves the in-scope name's counts as they are.
func TestDispatchOutOfScopeSharesSlot(t *testing.T) {
	opts := DefaultOptions()
	a := NewAnalyzer(opts)
	var foreign string
	for c := 'a'; c <= 'z' && foreign == ""; c++ {
		for d := 'a'; d <= 'z'; d++ {
			name := "z" + string(c) + string(d)
			if slotOf(name) == slotOf("open") && a.table.Base(name) == nil {
				foreign = name
				break
			}
		}
	}
	if foreign == "" {
		t.Fatal("no out-of-scope name shares open's slot")
	}
	only := NewAnalyzer(opts)
	for i := 0; i < 5; i++ {
		a.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT), 0o644, 3, sys.OK))
		a.Add(trace.Event{Name: foreign, PID: 1})
		only.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT), 0o644, 3, sys.OK))
	}
	if a.Analyzed() != 5 || a.Skipped() != 5 {
		t.Fatalf("analyzed %d, skipped %d; want 5 and 5", a.Analyzed(), a.Skipped())
	}
	for i := 0; i < 5; i++ {
		only.Add(trace.Event{Name: foreign, PID: 1})
	}
	if !bytes.Equal(analyzerBytes(t, a), analyzerBytes(t, only)) {
		t.Error("interleaving an out-of-scope name in open's slot changed the snapshot")
	}
}

// TestComboCountsRead: the Table 1 arrays are the only state. Combos and
// Snapshot return maps built on read that hold only non-zero keys, editing
// them leaves the analyzer unchanged, and Merge leaves its argument as it
// was.
func TestComboCountsRead(t *testing.T) {
	a, b := NewAnalyzer(DefaultOptions()), NewAnalyzer(DefaultOptions())
	a.Add(openEvent(int64(sys.O_WRONLY|sys.O_CREAT), 0o644, 4, sys.OK)) // 2 flags
	b.Add(openEvent(0, 0, 3, sys.OK))                                   // 1 flag, O_RDONLY
	b.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT|sys.O_TRUNC), 0o644, 5, sys.OK))

	c := a.Combos()
	if len(c.All) != 1 || c.All[2] != 1 || len(c.Rdonly) != 0 || c.Rdonly == nil {
		t.Fatalf("Combos() = %+v, want only all[2]=1 and an empty rdonly map", c)
	}
	c.All[9] = 7
	a.Snapshot(0).OpenCombos.All[2] = 100
	if got := a.Combos(); len(got.All) != 1 || got.All[2] != 1 || a.MaxComboSize() != 2 {
		t.Fatalf("editing a read map changed the analyzer: %+v", got)
	}

	before := analyzerBytes(t, b)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(analyzerBytes(t, b), before) {
		t.Error("Merge modified its argument")
	}
	got := a.Combos()
	if got.All[1] != 1 || got.All[2] != 1 || got.All[3] != 1 || got.Rdonly[1] != 1 || len(got.Rdonly) != 1 {
		t.Errorf("merged combos = %+v", got)
	}
	if fresh := NewAnalyzer(DefaultOptions()); fresh.Snapshot(0).OpenCombos != nil || fresh.MaxComboSize() != 0 {
		t.Error("an analyzer with no opens reports Table 1 data")
	}
}
