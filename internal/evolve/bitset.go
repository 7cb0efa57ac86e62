package evolve

import "math/bits"

// The global hit bitset: one bit per (target space, domain ordinal) pair,
// laid out by layout. Word-wise operations keep the per-candidate
// acceptance test allocation-free.

func newBitset(n int) []uint64 {
	return make([]uint64, (n+63)/64)
}

// setBit marks bit i. i is a layout bit index < layout.total, and the
// bitset is allocated newBitset(layout.total) words.
func setBit(bs []uint64, i int) {
	bs[i/64] |= 1 << uint(i%64)
}

// hasBit reports bit i. i is a layout bit index < layout.total, and the
// bitset is allocated newBitset(layout.total) words.
func hasBit(bs []uint64, i int) bool {
	return bs[i/64]&(1<<uint(i%64)) != 0
}

// orInto folds src into dst (dst |= src). dst and src are both
// newBitset(layout.total) words of the same layout.
func orInto(dst, src []uint64) {
	for i := range src {
		dst[i] |= src[i]
	}
}

// anyNew reports whether cand covers a bit outside covered. covered and
// cand are both newBitset(layout.total) words of the same layout.
func anyNew(covered, cand []uint64) bool {
	for i := range cand {
		if cand[i]&^covered[i] != 0 {
			return true
		}
	}
	return false
}

// countNew counts cand's bits outside covered. covered and cand are both
// newBitset(layout.total) words of the same layout.
func countNew(covered, cand []uint64) int {
	n := 0
	for i := range cand {
		n += bits.OnesCount64(cand[i] &^ covered[i])
	}
	return n
}
