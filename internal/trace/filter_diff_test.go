package trace_test

import (
	"testing"

	"iocov/internal/kernel"
	"iocov/internal/suites/crashmonkey"
	"iocov/internal/suites/xfstests"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

const diffMount = `^/mnt/test(/|$)`

// recordSuite runs one simulated suite with out-of-mount noise enabled and
// returns its raw, unfiltered event stream.
func recordSuite(t *testing.T, run func(*kernel.Kernel) error) []trace.Event {
	t.Helper()
	col := trace.NewCollector()
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: col})
	if err := run(k); err != nil {
		t.Fatal(err)
	}
	return col.Events()
}

// TestFilterMatchesReference replays recorded xfstests and crashmonkey
// streams through the production filter and the map-based reference and
// requires the same verdict on every event and the same final counts. One
// production filter serves every stream, recycled with Reset, so the
// retired-table reuse is checked against a fresh reference each time.
func TestFilterMatchesReference(t *testing.T) {
	streams := []struct {
		name string
		run  func(*kernel.Kernel) error
	}{
		{"xfstests", func(k *kernel.Kernel) error {
			_, err := xfstests.Run(k, xfstests.Config{Scale: 0.005, Seed: 1, Noise: true})
			return err
		}},
		{"crashmonkey", func(k *kernel.Kernel) error {
			_, err := crashmonkey.Run(k, crashmonkey.Config{Scale: 0.05, Seed: 1, Noise: true})
			return err
		}},
		{"xfstests-seed2", func(k *kernel.Kernel) error {
			_, err := xfstests.Run(k, xfstests.Config{Scale: 0.005, Seed: 2, Noise: true})
			return err
		}},
	}
	f, err := trace.NewFilter(diffMount)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		events := recordSuite(t, s.run)
		f.Reset()
		ref := trace.NewRefFilter(diffMount)
		for i := range events {
			ev := &events[i]
			if got, want := f.KeepRef(ev), ref.Keep(ev); got != want {
				t.Fatalf("%s: event %d (%s pid %d ret %d path %q): Keep = %v, reference %v",
					s.name, i, ev.Name, ev.PID, ev.Ret, ev.Path, got, want)
			}
		}
		kept, dropped := f.Stats()
		rk, rd := ref.Stats()
		if kept != rk || dropped != rd {
			t.Fatalf("%s: Stats = %d/%d, reference %d/%d", s.name, kept, dropped, rk, rd)
		}
		if kept == 0 || dropped == 0 {
			t.Fatalf("%s: stream exercises one verdict only (kept %d, dropped %d)", s.name, kept, dropped)
		}
	}
}
