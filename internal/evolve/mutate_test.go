package evolve

import (
	"math/rand"
	"strings"
	"testing"

	"iocov/internal/kernel"
	"iocov/internal/suites/workload"
	"iocov/internal/syz"
	"iocov/internal/vfs"
)

// TestMutatePropertyRoundTripAndExecute is the mutation surface's property
// test: every mutant of a fuzz-generated corpus (a) round-trips through the
// serializer and parser unchanged, and (b) executes against the simulated
// kernel without panicking, whatever the operator did to the program.
func TestMutatePropertyRoundTripAndExecute(t *testing.T) {
	corpus := syz.Generate(syz.GenConfig{Programs: 30, Seed: 42, Dir: "/evolve"})
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	for i := 0; i < 500; i++ {
		rng := rand.New(rand.NewSource(workload.ItemSeed(99, uint64(i))))
		m := mutate(rng, corpus, "/evolve")
		text := m.Format()
		back, err := syz.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("mutant %d does not reparse: %v\n%s", i, err, text)
		}
		if len(back) != 1 || back[0].Format() != text {
			t.Fatalf("mutant %d does not round-trip\n%s", i, text)
		}
		setupDirs(p, "/evolve", m)
		syz.Execute(p, []syz.Program{m}) // must not panic
	}
}

// TestMutateLeavesCorpusIntact: operators clone before editing; the shared
// corpus never changes underneath the loop.
func TestMutateLeavesCorpusIntact(t *testing.T) {
	corpus := syz.Generate(syz.GenConfig{Programs: 10, Seed: 4, Dir: "/evolve"})
	before := make([]string, len(corpus))
	for i, p := range corpus {
		before[i] = p.Format()
	}
	for i := 0; i < 200; i++ {
		rng := rand.New(rand.NewSource(workload.ItemSeed(7, uint64(i))))
		_ = mutate(rng, corpus, "/evolve")
	}
	for i, p := range corpus {
		if p.Format() != before[i] {
			t.Fatalf("mutation aliased corpus program %d", i)
		}
	}
}
