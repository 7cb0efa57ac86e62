package vfs

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"iocov/internal/raceflag"
	"iocov/internal/sys"
)

// arenaLen returns the current arena's length.
func arenaLen() int {
	if p := zeroArena.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// TestZerosPayloadPaths: allZero knows a slice of the current arena in O(1)
// (fromArena); a fresh zero buffer, an arena slice that starts past the
// base, a slice taken before the arena grew and a non-zero buffer take the
// scan. Each payload overwrites non-zero file bytes and must read back as
// itself.
func TestZerosPayloadPaths(t *testing.T) {
	const n = 6000
	stale := Zeros(n)
	Zeros(arenaLen() + 4096) // grow: stale now belongs to an older arena
	nonZero := bytes.Repeat([]byte{0x5A}, n)
	for _, c := range []struct {
		name      string
		data      []byte
		fromArena bool
		zero      bool
	}{
		{"arena slice", Zeros(n), true, true},
		{"fresh zero buffer", make([]byte, n), false, true},
		{"arena slice past the base", Zeros(n + 1)[1:], false, true},
		{"slice of an older arena", stale, false, true},
		{"non-zero buffer", nonZero, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := fromArena(c.data); got != c.fromArena {
				t.Fatalf("fromArena = %v, want %v", got, c.fromArena)
			}
			if got := allZero(c.data); got != c.zero {
				t.Fatalf("allZero = %v, want %v", got, c.zero)
			}
			fs := newFS(t)
			ino := mustCreate(t, fs, "/f")
			if _, e := fs.WriteAt(Root, ino, bytes.Repeat([]byte{0xAB}, 3*n), 0, false); e != sys.OK {
				t.Fatal(e)
			}
			if w, e := fs.WriteAt(Root, ino, c.data, 100, false); e != sys.OK || w != n {
				t.Fatalf("write = %d, %v", w, e)
			}
			got := make([]byte, 3*n)
			if r, e := fs.ReadAt(Root, ino, got, 0); e != sys.OK || r != len(got) {
				t.Fatalf("read = %d, %v", r, e)
			}
			want := bytes.Repeat([]byte{0xAB}, 3*n)
			copy(want[100:], c.data)
			if !bytes.Equal(got, want) {
				t.Fatal("stored bytes differ from the payload")
			}
		})
	}
}

// TestZerosGrowOnce: callers that need a larger arena at the same moment
// allocate it once between them, as the shards of a parallel run do when
// each asks for the 258 MiB xfstests write buffer. Each of six rounds grows
// the arena by 4 MiB from four goroutines released together.
func TestZerosGrowOnce(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	for round := 0; round < 6; round++ {
		size := arenaLen() + 4<<20
		var wg sync.WaitGroup
		start := make(chan struct{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				Zeros(size)
			}()
		}
		close(start)
		wg.Wait()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2*uint64(size) {
			t.Fatalf("round %d: 4 concurrent growths to %d bytes allocated %d bytes, want one arena", round, size, got)
		}
	}
}

// TestZerosGrowDuringWrites runs under the -race lane: one goroutine grows
// the arena while another writes arena slices and reads them back, so an
// arena installed without synchronization shows up as a data race.
func TestZerosGrowDuringWrites(t *testing.T) {
	fs := newFS(t)
	ino := mustCreate(t, fs, "/f")
	base := arenaLen()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 32; i++ {
			Zeros(base + i*4096)
		}
	}()
	fill := bytes.Repeat([]byte{0xCD}, 8192)
	got := make([]byte, 8192)
	for i := 0; i < 200; i++ {
		n := 1 + i*37%8192
		if _, e := fs.WriteAt(Root, ino, fill, 0, false); e != sys.OK {
			t.Fatal(e)
		}
		if _, e := fs.WriteAt(Root, ino, Zeros(n), 0, false); e != sys.OK {
			t.Fatal(e)
		}
		if r, e := fs.ReadAt(Root, ino, got, 0); e != sys.OK || r != len(got) {
			t.Fatalf("read = %d, %v", r, e)
		}
		if !allZeroRef(got[:n]) || !bytes.Equal(got[n:], fill[n:]) {
			t.Fatalf("write %d: %d-byte arena payload stored wrong", i, n)
		}
	}
	<-done
}

// allZeroRef is the byte-by-byte reference for allZero.
func allZeroRef(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
