// Package workload provides the shared machinery of the simulated test
// suites: deterministic weighted choice, the bucketed size distributions
// used to calibrate write/read/xattr sizes against the paper's figures, and
// small helpers for driving the simulated kernel.
package workload

import (
	"math/rand"

	"iocov/internal/vfs"
)

// WeightedFlags is a distribution over open-flag words. Weights are
// relative; they do not need to sum to anything in particular.
type WeightedFlags struct {
	entries []flagEntry
	total   float64
}

type flagEntry struct {
	flags  int
	weight float64
	cum    float64
}

// NewWeightedFlags builds the distribution from (flags, weight) pairs.
func NewWeightedFlags(pairs []FlagWeight) *WeightedFlags {
	w := &WeightedFlags{}
	for _, p := range pairs {
		if p.Weight <= 0 {
			continue
		}
		w.total += p.Weight
		w.entries = append(w.entries, flagEntry{flags: p.Flags, weight: p.Weight, cum: w.total})
	}
	return w
}

// FlagWeight is one (flags word, relative weight) pair.
type FlagWeight struct {
	Flags  int
	Weight float64
}

// Pick draws one flags word.
func (w *WeightedFlags) Pick(r *rand.Rand) int {
	if len(w.entries) == 0 {
		return 0
	}
	x := r.Float64() * w.total
	lo, hi := 0, len(w.entries)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.entries[mid].cum < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return w.entries[lo].flags
}

// Entries exposes the distribution's support, for tests.
func (w *WeightedFlags) Entries() []FlagWeight {
	out := make([]FlagWeight, len(w.entries))
	for i, e := range w.entries {
		out[i] = FlagWeight{Flags: e.flags, Weight: e.weight}
	}
	return out
}

// BucketWeight assigns a relative weight to one power-of-two size bucket.
// Bucket -1 is the "size equals zero" boundary partition.
type BucketWeight struct {
	Bucket int
	Weight float64
}

// SizeDist is a distribution over power-of-two size buckets. Drawing first
// picks a bucket by weight, then a uniform size within [2^k, 2^(k+1)), so
// the resulting trace lands in exactly the paper's input partitions.
type SizeDist struct {
	entries []sizeEntry
	total   float64
	// Cap bounds the drawn size (the paper annotates xfstests' maximum
	// write at 258 MiB); zero means no cap.
	Cap int64
}

type sizeEntry struct {
	bucket int
	cum    float64
}

// NewSizeDist builds a size distribution.
func NewSizeDist(buckets []BucketWeight, cap int64) *SizeDist {
	d := &SizeDist{Cap: cap}
	for _, b := range buckets {
		if b.Weight <= 0 {
			continue
		}
		d.total += b.Weight
		d.entries = append(d.entries, sizeEntry{bucket: b.Bucket, cum: d.total})
	}
	return d
}

// Pick draws one size.
func (d *SizeDist) Pick(r *rand.Rand) int64 {
	if len(d.entries) == 0 {
		return 0
	}
	x := r.Float64() * d.total
	lo, hi := 0, len(d.entries)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.entries[mid].cum < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	k := d.entries[lo].bucket
	if k < 0 {
		return 0
	}
	low := int64(1) << uint(k)
	size := low + r.Int63n(low) // uniform in [2^k, 2^(k+1))
	if d.Cap > 0 && size > d.Cap {
		size = d.Cap
	}
	return size
}

// Buckets exposes the support, for tests.
func (d *SizeDist) Buckets() []int {
	out := make([]int, len(d.entries))
	for i, e := range d.entries {
		out[i] = e.bucket
	}
	return out
}

// ScaleCount applies a scale factor to an op count, always keeping at least
// one op when the unscaled count is positive, so that scaled-down test runs
// still cover every partition the full run covers (just less often).
func ScaleCount(n int, scale float64) int {
	if n <= 0 {
		return 0
	}
	if scale >= 1 {
		return int(float64(n) * scale)
	}
	s := int(float64(n) * scale)
	if s < 1 {
		return 1
	}
	return s
}

// ItemSeed derives a decorrelated RNG seed for one work item of a suite
// run. Suites are decomposed into independent work items (one test, one
// storm chunk); each item draws from its own RNG seeded by (run seed, item
// index) so that the generated workload is a pure function of the item,
// independent of which shard executes it or how many shards exist. The
// mixing is the splitmix64 finalizer, so adjacent item indices yield
// decorrelated streams. A runner reseeds one *rand.Rand with it per item:
// Seed resets the source to exactly the state rand.NewSource(ItemSeed(...))
// starts in, without allocating a new source.
func ItemSeed(seed int64, item uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(item+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ChunkRange splits n ops into `chunks` contiguous ranges and returns the
// half-open range [lo, hi) of chunk c. Ranges cover 0..n exactly and differ
// in size by at most one; a chunk can be empty when n < chunks.
func ChunkRange(n, chunks, c int) (lo, hi int) {
	return c * n / chunks, (c + 1) * n / chunks
}

// SharedBuf hands out read-only slices of the process-wide zero arena
// (vfs.Zeros) so that large writes do not allocate per call. The suites'
// write payloads are all-zero by contract, so every runner — and every shard
// of a parallel run — can slice the same backing array; a buffer per
// xfstests shard would cost 258 MiB times the worker count. Because each
// slice starts at the arena's base, the vfs recognises the payload as zero
// without reading it.
//
// The returned slices are strictly read-only; writing through one would
// corrupt every concurrent user of the arena.
type SharedBuf struct {
	max int
}

// NewSharedBuf returns a view of max bytes of the shared arena, growing the
// arena when a caller asks for more than any earlier caller did.
func NewSharedBuf(max int64) *SharedBuf {
	if max < 0 {
		max = 0
	}
	vfs.Zeros(int(max))
	return &SharedBuf{max: int(max)}
}

// Get returns an n-byte slice (n is clamped to the buffer size). The slice
// must be treated as read-only.
func (b *SharedBuf) Get(n int64) []byte {
	if n > int64(b.max) {
		n = int64(b.max)
	}
	return vfs.Zeros(int(n))
}
