package workload

import (
	"math"
	"math/rand"
	"testing"

	"iocov/internal/raceflag"
	"iocov/internal/sys"
)

func TestWeightedFlagsDistribution(t *testing.T) {
	w := NewWeightedFlags([]FlagWeight{
		{Flags: sys.O_RDONLY, Weight: 70},
		{Flags: sys.O_WRONLY, Weight: 20},
		{Flags: sys.O_RDWR, Weight: 10},
	})
	rng := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[w.Pick(rng)]++
	}
	within := func(got int, wantFrac float64) bool {
		return math.Abs(float64(got)/n-wantFrac) < 0.01
	}
	if !within(counts[sys.O_RDONLY], 0.70) || !within(counts[sys.O_WRONLY], 0.20) || !within(counts[sys.O_RDWR], 0.10) {
		t.Errorf("distribution = %v", counts)
	}
}

func TestWeightedFlagsSkipsNonPositive(t *testing.T) {
	w := NewWeightedFlags([]FlagWeight{
		{Flags: 1, Weight: 0},
		{Flags: 2, Weight: -5},
		{Flags: 3, Weight: 1},
	})
	if got := len(w.Entries()); got != 1 {
		t.Errorf("entries = %d, want 1", got)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if w.Pick(rng) != 3 {
			t.Fatal("picked a zero-weight entry")
		}
	}
}

func TestWeightedFlagsEmpty(t *testing.T) {
	w := NewWeightedFlags(nil)
	rng := rand.New(rand.NewSource(1))
	if w.Pick(rng) != 0 {
		t.Error("empty distribution should pick 0")
	}
}

func TestSizeDistBuckets(t *testing.T) {
	d := NewSizeDist([]BucketWeight{
		{Bucket: -1, Weight: 1},
		{Bucket: 4, Weight: 1},
		{Bucket: 10, Weight: 1},
	}, 0)
	rng := rand.New(rand.NewSource(2))
	sawZero, saw4, saw10 := false, false, false
	for i := 0; i < 10_000; i++ {
		v := d.Pick(rng)
		switch {
		case v == 0:
			sawZero = true
		case v >= 16 && v < 32:
			saw4 = true
		case v >= 1024 && v < 2048:
			saw10 = true
		default:
			t.Fatalf("size %d outside every configured bucket", v)
		}
	}
	if !sawZero || !saw4 || !saw10 {
		t.Errorf("buckets missed: zero=%v 4=%v 10=%v", sawZero, saw4, saw10)
	}
}

func TestSizeDistCap(t *testing.T) {
	d := NewSizeDist([]BucketWeight{{Bucket: 28, Weight: 1}}, 258<<20)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if v := d.Pick(rng); v > 258<<20 {
			t.Fatalf("size %d exceeds cap", v)
		}
	}
}

func TestSizeDistEmpty(t *testing.T) {
	d := NewSizeDist(nil, 0)
	rng := rand.New(rand.NewSource(1))
	if d.Pick(rng) != 0 {
		t.Error("empty dist should pick 0")
	}
}

func TestScaleCount(t *testing.T) {
	cases := []struct {
		n     int
		scale float64
		want  int
	}{
		{1000, 1.0, 1000},
		{1000, 0.5, 500},
		{1000, 2.0, 2000},
		{1000, 0.0001, 1}, // floor of 1 preserves coverage
		{0, 0.5, 0},
		{-5, 1.0, 0},
	}
	for _, c := range cases {
		if got := ScaleCount(c.n, c.scale); got != c.want {
			t.Errorf("ScaleCount(%d,%g) = %d, want %d", c.n, c.scale, got, c.want)
		}
	}
}

func TestItemSeedDecorrelated(t *testing.T) {
	// Distinct item indices must yield distinct seeds, and the same
	// (seed, item) pair must always yield the same seed.
	seen := map[int64]uint64{}
	for i := uint64(0); i < 10_000; i++ {
		s := ItemSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("ItemSeed collision: items %d and %d both -> %d", prev, i, s)
		}
		seen[s] = i
	}
	if ItemSeed(42, 7) != ItemSeed(42, 7) {
		t.Error("ItemSeed not deterministic")
	}
	if ItemSeed(42, 7) == ItemSeed(43, 7) {
		t.Error("ItemSeed ignores the run seed")
	}
}

// TestItemRNGDeterministic: an item RNG reseeded with ItemSeed, after it
// ran another item's stream, draws exactly the stream of a fresh source with
// that seed, so reusing one RNG across items changes no generated workload.
func TestItemRNGDeterministic(t *testing.T) {
	reused := rand.New(rand.NewSource(0))
	for item := uint64(0); item < 4; item++ {
		reused.Seed(ItemSeed(1, item))
		fresh := rand.New(rand.NewSource(ItemSeed(1, item)))
		for i := 0; i < 100; i++ {
			if reused.Int63() != fresh.Int63() || reused.Float64() != fresh.Float64() {
				t.Fatalf("item %d: reseeded stream diverges from a fresh source at draw %d", item, i)
			}
		}
		reused.Intn(1000) // leave state behind for the next reseed
	}
}

func TestChunkRange(t *testing.T) {
	for _, c := range []struct{ n, chunks int }{
		{100, 8}, {7, 8}, {0, 4}, {1, 1}, {16, 16}, {33, 8},
	} {
		covered := 0
		prevHi := 0
		for i := 0; i < c.chunks; i++ {
			lo, hi := ChunkRange(c.n, c.chunks, i)
			if lo != prevHi {
				t.Errorf("ChunkRange(%d,%d,%d): lo=%d, want %d (contiguous)", c.n, c.chunks, i, lo, prevHi)
			}
			if hi < lo {
				t.Errorf("ChunkRange(%d,%d,%d): hi=%d < lo=%d", c.n, c.chunks, i, hi, lo)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != c.n || prevHi != c.n {
			t.Errorf("ChunkRange(%d,%d): covered %d ops ending at %d", c.n, c.chunks, covered, prevHi)
		}
	}
}

func TestSharedBuf(t *testing.T) {
	b := NewSharedBuf(1024)
	if got := len(b.Get(100)); got != 100 {
		t.Errorf("Get(100) len = %d", got)
	}
	if got := len(b.Get(4096)); got != 1024 {
		t.Errorf("Get over capacity len = %d, want clamp to 1024", got)
	}
	if got := len(b.Get(0)); got != 0 {
		t.Errorf("Get(0) len = %d", got)
	}
}

// TestSharedBufGetAllocs pins the storm write payload: every write of the
// xfstests storms takes its buffer from Get, so once the arena holds the
// buffer's size, Get allocates nothing.
func TestSharedBufGetAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	b := NewSharedBuf(1 << 16)
	var n int
	allocs := testing.AllocsPerRun(200, func() {
		n += len(b.Get(512)) + len(b.Get(1<<20))
	})
	if allocs != 0 {
		t.Fatalf("SharedBuf.Get allocates %.1f times per two calls, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("Get returned empty slices")
	}
}
