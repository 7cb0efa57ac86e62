package evolve

import "iocov/internal/syz"

// Minimize returns a greedy set-cover reduction of the corpus: the smallest
// greedy subset whose union of hit bitsets equals the full corpus's covered
// partition set. Ties break toward the earliest-accepted program, so the
// reduction is deterministic. Minimization preserves which partitions are
// covered, not how often — a minimized corpus replays to the same covered
// set but not the same frequency counts.
func (r *Result) Minimize() []syz.Program {
	covered := newBitset(r.lay.bits)
	taken := make([]bool, len(r.Corpus))
	var out []syz.Program
	for {
		best, bestGain := -1, 0
		for i := range r.Corpus {
			if taken[i] {
				continue
			}
			if g := countNew(covered, r.hits[i]); g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		orInto(covered, r.hits[best])
		out = append(out, r.Corpus[best])
	}
	return out
}
