package evolve

import (
	"testing"

	"iocov/internal/raceflag"
)

// TestBitsetAllocs pins the per-candidate acceptance test: the bitset
// helpers work in place on the caller's words and allocate nothing.
func TestBitsetAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	const bitsN = 300
	covered, cand := newBitset(bitsN), newBitset(bitsN)
	setBit(covered, 3)
	var hits, news int
	allocs := testing.AllocsPerRun(200, func() {
		setBit(cand, 3)
		setBit(cand, bitsN-1)
		if hasBit(cand, bitsN-1) {
			hits++
		}
		if anyNew(covered, cand) {
			news += countNew(covered, cand)
		}
		orInto(covered, cand)
		clear(covered)
		setBit(covered, 3)
	})
	if allocs != 0 {
		t.Fatalf("bitset helpers allocate %.1f times per candidate, want 0", allocs)
	}
	if hits == 0 || news == 0 {
		t.Fatalf("hasBit hits %d, countNew total %d; the pin exercises nothing", hits, news)
	}
}
