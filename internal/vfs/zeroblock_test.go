package vfs

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"iocov/internal/raceflag"
	"iocov/internal/sys"
)

// TestZeroPayloadAccountingParity runs one op sequence twice, once with
// all-zero write payloads and once with non-zero ones. An all-zero block
// has no memory behind it, but it is allocated and charged all the same:
// every step must return the same result, Stat.Blocks and UsedBlocks, so
// ENOSPC and EDQUOT strike at the same point.
func TestZeroPayloadAccountingParity(t *testing.T) {
	user := Cred{UID: 1000, GID: 1000}
	for _, tc := range []struct {
		name string
		cred Cred
		want sys.Errno
	}{
		{"capacity", Root, sys.ENOSPC},
		{"quota", user, sys.EDQUOT},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CapacityBytes = 512 * 1024
			cfg.QuotaBytes = 256 * 1024
			zero, full := New(cfg), New(cfg)
			zf, ff := mustCreate(t, zero, "/f"), mustCreate(t, full, "/f")
			rng := rand.New(rand.NewSource(3))
			hits := 0
			for op := 0; op < 300; op++ {
				off, size := rng.Int63n(1<<20), rng.Intn(48*1024)+1
				var ze, fe sys.Errno
				switch rng.Intn(5) {
				case 0, 1, 2:
					var zn, fn int
					zn, ze = zero.WriteAt(tc.cred, zf, make([]byte, size), off, false)
					fn, fe = full.WriteAt(tc.cred, ff, bytes.Repeat([]byte{0xAB}, size), off, false)
					if zn != fn {
						t.Fatalf("op %d: write(%d,%d) = %d zero, %d non-zero", op, off, size, zn, fn)
					}
				case 3:
					mode := rng.Intn(2) * FallocKeepSize
					ze = zero.Fallocate(tc.cred, zf, mode, off, int64(size))
					fe = full.Fallocate(tc.cred, ff, mode, off, int64(size))
				default:
					ze = zero.TruncateInode(tc.cred, zf, off)
					fe = full.TruncateInode(tc.cred, ff, off)
				}
				if ze != fe {
					t.Fatalf("op %d: zero payload %v, non-zero %v", op, ze, fe)
				}
				if ze == tc.want {
					hits++
				}
				zst, fst := zero.statLockedForTest(zf), full.statLockedForTest(ff)
				if zst.Blocks != fst.Blocks || zst.Size != fst.Size {
					t.Fatalf("op %d: zero payload %d blocks size %d, non-zero %d blocks size %d",
						op, zst.Blocks, zst.Size, fst.Blocks, fst.Size)
				}
				if zero.UsedBlocks() != full.UsedBlocks() {
					t.Fatalf("op %d: used blocks %d zero, %d non-zero", op, zero.UsedBlocks(), full.UsedBlocks())
				}
			}
			if hits == 0 {
				t.Fatalf("the sequence never hit %v; it checks nothing", tc.want)
			}
		})
	}
}

// TestZeroWriteAllocs pins the zero-run representation: writing 64 MiB of
// zeros into a fresh file, 1 MiB at a time, and unlinking it allocates no
// blocks. A 4 KiB block each would be 64 MiB; the appends extend one zero
// run, so the only allocation is the file's run slice (about 48 bytes), and
// the bound of 64 KiB leaves room for the runtime's own bookkeeping.
func TestZeroWriteAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	fs := newFS(t)
	ino := mustCreate(t, fs, "/f")
	chunk := make([]byte, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := int64(0); off < 64<<20; off += int64(len(chunk)) {
		if _, e := fs.WriteAt(Root, ino, chunk, off, false); e != sys.OK {
			t.Fatalf("write at %d: %v", off, e)
		}
	}
	if e := fs.Unlink(fs.Root(), Root, "/f"); e != sys.OK {
		t.Fatal(e)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("64 MiB of zero writes allocated %d bytes, want under 64 KiB", got)
	}
}

// TestZeroRewriteAllocs: once a file's run slice exists, a 1 MiB zero
// write, a read of it back and a truncate to zero allocate nothing, so a
// workload that rewrites one file does no garbage per cycle.
func TestZeroRewriteAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	fs := newFS(t)
	ino := mustCreate(t, fs, "/f")
	chunk, buf := make([]byte, 1<<20), make([]byte, 1<<20)
	allocs := testing.AllocsPerRun(20, func() {
		if _, e := fs.WriteAt(Root, ino, chunk, 0, false); e != sys.OK {
			t.Fatal(e)
		}
		if n, e := fs.ReadAt(Root, ino, buf, 0); e != sys.OK || n != len(buf) {
			t.Fatalf("read = %d, %v", n, e)
		}
		if e := fs.TruncateInode(Root, ino, 0); e != sys.OK {
			t.Fatal(e)
		}
	})
	if allocs != 0 {
		t.Fatalf("zero write, read and truncate allocated %v times per cycle, want 0", allocs)
	}
}
