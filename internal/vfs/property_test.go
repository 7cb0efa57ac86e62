package vfs

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"iocov/internal/sys"
)

// TestReadWriteOracle drives random positional writes, reads, truncates,
// fallocates and clones against the filesystem and a flat in-memory
// byte-slice oracle, checking every read byte-for-byte and the block
// footprint after every step. Writes mix non-zero, all-zero and half-zero
// payloads, so the allocated-but-zero (nil) block entries meet real blocks
// in every order.
func TestReadWriteOracle(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		runOracle(t, oracleProgram(seed))
	}
	runOracle(t, arenaProgram())
}

// FuzzReadWriteOracle runs the oracle on a byte string decoded into ops.
func FuzzReadWriteOracle(f *testing.F) {
	for seed := int64(0); seed < 5; seed++ {
		f.Add(oracleProgram(seed))
	}
	f.Add(arenaProgram())
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512*oracleOpLen {
			prog = prog[:512*oracleOpLen]
		}
		runOracle(t, prog)
	})
}

// Oracle ops are oracleOpLen bytes each: a kind byte, a 24-bit offset, a
// 16-bit size, a fill byte and a flag byte.
const (
	oracleOpLen  = 8
	oracleMaxOff = 1 << 20
	oracleMaxLen = 16 * 1024
)

// oracleProgram is the op string TestReadWriteOracle runs for seed.
func oracleProgram(seed int64) []byte {
	prog := make([]byte, 400*oracleOpLen)
	rand.New(rand.NewSource(seed)).Read(prog)
	return prog
}

// arenaProgram is an op string of zero-arena writes: over non-zero data,
// past the end of the file and into a hole, each followed by a read, with
// every kind of all-zero payload (flag byte 0, 1 and 2).
func arenaProgram() []byte {
	op := func(kind byte, off, size int, flag byte) []byte {
		return []byte{kind, byte(off), byte(off >> 8), byte(off >> 16), byte(size), byte(size >> 8), 0x40, flag}
	}
	var prog []byte
	for flag := byte(0); flag < 3; flag++ {
		prog = append(prog, op(0, 0, 9000, 0)...)              // non-zero data
		prog = append(prog, op(2, 300, 5000, 1+flag%2)...)     // arena slice over it
		prog = append(prog, op(3, 0, 12000, 0)...)             // read it back
		prog = append(prog, op(2, 20000, 7000, flag)...)       // past the end
		prog = append(prog, op(2, 100000, 4096, 1)...)         // into a hole
		prog = append(prog, op(3, 18000, 16000, 0)...)         // read across
		prog = append(prog, op(4, 100*(1+int(flag)), 0, 0)...) // truncate
	}
	return prog
}

// oracleFile is one file and its flat model: content, and the block
// indices that must be allocated.
type oracleFile struct {
	fs    *FS
	ino   *Inode
	data  []byte
	alloc map[int64]bool
	buf   []byte // read buffer, reused
}

func (o *oracleFile) grow(end int64) {
	if end > int64(len(o.data)) {
		o.data = append(o.data, make([]byte, end-int64(len(o.data)))...)
	}
}

func (o *oracleFile) allocate(off, n int64) {
	for bi := off / 4096; bi <= (off+n-1)/4096; bi++ {
		o.alloc[bi] = true
	}
}

func (o *oracleFile) write(t *testing.T, data []byte, off int64) {
	t.Helper()
	n, e := o.fs.WriteAt(Root, o.ino, data, off, false)
	if e != sys.OK || n != len(data) {
		t.Fatalf("write(%d,%d) = %d, %v", off, len(data), n, e)
	}
	if len(data) > 0 {
		o.grow(off + int64(len(data)))
		copy(o.data[off:], data)
		o.allocate(off, int64(len(data)))
	}
}

// check compares the file's size and block footprint with the model, and
// the bytes in [off, off+n) that lie inside the file.
func (o *oracleFile) check(t *testing.T, what string, off, n int64) {
	t.Helper()
	st := o.fs.statLockedForTest(o.ino)
	if st.Size != int64(len(o.data)) {
		t.Fatalf("%s: size %d, oracle %d", what, st.Size, len(o.data))
	}
	if st.Blocks != int64(len(o.alloc)) {
		t.Fatalf("%s: %d blocks, oracle %d", what, st.Blocks, len(o.alloc))
	}
	n = min(n, int64(len(o.data))-off)
	if n <= 0 {
		return
	}
	o.buf = dirty(o.buf, int(n))
	if got, e := o.fs.ReadAt(Root, o.ino, o.buf, off); e != sys.OK || int64(got) != n {
		t.Fatalf("%s: read(%d,%d) = %d, %v", what, off, n, got, e)
	}
	if want := o.data[off : off+n]; !bytes.Equal(o.buf, want) {
		for i := range o.buf {
			if o.buf[i] != want[i] {
				t.Fatalf("%s: byte %d reads %#x, oracle %#x", what, off+int64(i), o.buf[i], want[i])
			}
		}
	}
}

// runOracle decodes prog into ops and checks each against the model.
func runOracle(t *testing.T, prog []byte) {
	fs := New(DefaultConfig())
	o := &oracleFile{fs: fs, ino: mustCreate(t, fs, "/f"), alloc: map[int64]bool{}}
	base := fs.UsedBlocks()
	var clone *oracleFile
	for op := 0; (op+1)*oracleOpLen <= len(prog); op++ {
		b := prog[op*oracleOpLen : (op+1)*oracleOpLen]
		off := int64(b[1]) | int64(b[2])<<8 | int64(b[3])<<16
		off %= oracleMaxOff
		size := (int(b[4]) | int(b[5])<<8) % oracleMaxLen
		what := fmt.Sprintf("op %d (kind %d, off %d, size %d)", op, b[0]%8, off, size)
		switch b[0] % 8 {
		case 0, 1: // non-zero write; flag bit 0 zeroes its first half
			data := bytes.Repeat([]byte{b[6] | 1}, size)
			if b[7]&1 != 0 {
				clear(data[:size/2])
			}
			o.write(t, data, off)
		case 2: // all-zero write: the flag byte picks a fresh buffer, a
			// zero-arena slice, or an arena slice that starts past its base
			switch b[7] % 3 {
			case 0:
				o.write(t, make([]byte, size), off)
			case 1:
				o.write(t, Zeros(size), off)
			default:
				o.write(t, Zeros(size + 1)[1:], off)
			}
		case 3: // read
			o.buf = dirty(o.buf, size)
			buf := o.buf
			n, e := fs.ReadAt(Root, o.ino, buf, off)
			if e != sys.OK {
				t.Fatalf("%s: read = %v", what, e)
			}
			want := 0
			if off < int64(len(o.data)) {
				want = min(len(o.data)-int(off), size)
			}
			if n != want {
				t.Fatalf("%s: read %d bytes, oracle %d", what, n, want)
			}
			if n > 0 && !bytes.Equal(buf[:n], o.data[off:off+int64(n)]) {
				t.Fatalf("%s: read content mismatch", what)
			}
		case 4: // truncate, to any length including mid-block
			if e := fs.TruncateInode(Root, o.ino, off); e != sys.OK {
				t.Fatalf("%s: truncate = %v", what, e)
			}
			if off <= int64(len(o.data)) {
				o.data = o.data[:off]
				for bi := range o.alloc {
					if bi*4096 >= off {
						delete(o.alloc, bi)
					}
				}
			} else {
				o.grow(off)
			}
		case 5, 6: // fallocate; kind 6 keeps the size
			mode, n := 0, int64(size)+1
			if b[0]%8 == 6 {
				mode = FallocKeepSize
			}
			if e := fs.Fallocate(Root, o.ino, mode, off, n); e != sys.OK {
				t.Fatalf("%s: fallocate = %v", what, e)
			}
			o.allocate(off, n)
			if mode == 0 {
				o.grow(off + n)
			}
		case 7: // clone, then write into the clone only
			c := fs.Clone()
			cino, e := c.LookupInode(c.Root(), Root, "/f", true)
			if e != sys.OK {
				t.Fatalf("%s: clone lookup = %v", what, e)
			}
			// The new clone replaces the last one, so it takes over its
			// model's buffers.
			var data, buf []byte
			if clone != nil {
				data, buf = clone.data[:0], clone.buf
			}
			clone = &oracleFile{fs: c, ino: cino, data: append(data, o.data...), alloc: maps.Clone(o.alloc), buf: buf}
			clone.write(t, bytes.Repeat([]byte{b[6] | 1}, size+1), off)
			clone.check(t, what+" clone", off, int64(size)+1)
			o.check(t, what+" original", off, int64(size)+1)
		}
		o.check(t, what, 0, 0)
		if got := fs.UsedBlocks() - base; got != int64(len(o.alloc)) {
			t.Fatalf("%s: %d blocks charged, oracle %d", what, got, len(o.alloc))
		}
	}
	o.check(t, "end", 0, int64(len(o.data)))
	if clone != nil {
		// Writes to the original after the clone must not show through.
		clone.check(t, "last clone at end", 0, int64(len(clone.data)))
	}
}

// dirty returns an n-byte buffer, reusing buf, filled with a non-zero byte
// so that a read which leaves bytes unwritten shows.
func dirty(buf []byte, n int) []byte {
	buf = slices.Grow(buf[:0], n)[:n]
	if n > 0 {
		buf[0] = 0xEE
		for i := 1; i < n; i *= 2 {
			copy(buf[i:], buf[:i])
		}
	}
	return buf
}

// TestBlockAccountingInvariant: after any op sequence, the filesystem's
// used-block counter equals the sum of per-inode allocations plus metadata
// blocks, and returns to the baseline when everything is deleted.
func TestBlockAccountingInvariant(t *testing.T) {
	fs := New(DefaultConfig())
	base := fs.UsedBlocks()
	rng := rand.New(rand.NewSource(42))
	var files []string
	for i := 0; i < 50; i++ {
		switch {
		case rng.Intn(3) > 0 || len(files) == 0:
			name := fmt.Sprintf("/f%03d", i)
			res, e := fs.OpenInode(fs.Root(), Root, name, sys.O_CREAT|sys.O_RDWR, 0o644)
			if e != sys.OK {
				t.Fatal(e)
			}
			if _, e := fs.WriteAt(Root, res.Ino, make([]byte, rng.Intn(64*1024)), int64(rng.Intn(1<<20)), false); e != sys.OK {
				t.Fatal(e)
			}
			files = append(files, name)
		default:
			idx := rng.Intn(len(files))
			if e := fs.Unlink(fs.Root(), Root, files[idx]); e != sys.OK {
				t.Fatal(e)
			}
			files = append(files[:idx], files[idx+1:]...)
		}
		if fs.UsedBlocks() < base {
			t.Fatalf("used blocks %d below baseline %d", fs.UsedBlocks(), base)
		}
	}
	for _, f := range files {
		if e := fs.Unlink(fs.Root(), Root, f); e != sys.OK {
			t.Fatal(e)
		}
	}
	if got := fs.UsedBlocks(); got != base {
		t.Errorf("blocks after deleting everything = %d, want %d (leak)", got, base)
	}
}

// TestSparseFilesChargeOnlyWrittenBlocks: a huge sparse file costs only
// what was written.
func TestSparseFilesChargeOnlyWrittenBlocks(t *testing.T) {
	fs := New(DefaultConfig())
	ino := mustCreate(t, fs, "/sparse")
	before := fs.UsedBlocks()
	// 512 MiB sparse size via truncate: no charge.
	if e := fs.TruncateInode(Root, ino, 512<<20); e != sys.OK {
		t.Fatal(e)
	}
	if got := fs.UsedBlocks(); got != before {
		t.Errorf("truncate charged %d blocks", got-before)
	}
	// One byte at the far end: one block.
	if _, e := fs.WriteAt(Root, ino, []byte{1}, 512<<20-1, false); e != sys.OK {
		t.Fatal(e)
	}
	if got := fs.UsedBlocks() - before; got != 1 {
		t.Errorf("far write charged %d blocks, want 1", got)
	}
	// The hole reads as zeros.
	buf := make([]byte, 4)
	n, e := fs.ReadAt(Root, ino, buf, 1<<20)
	if e != sys.OK || n != 4 || !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Errorf("hole read = %d,%v,%v", n, e, buf)
	}
}

// TestTruncateZeroesTailWithinBlock: shrink then re-grow must not resurrect
// old data (the classic stale-tail bug).
func TestTruncateZeroesTailWithinBlock(t *testing.T) {
	fs := New(DefaultConfig())
	ino := mustCreate(t, fs, "/f")
	data := bytes.Repeat([]byte{0xAB}, 4096)
	if _, e := fs.WriteAt(Root, ino, data, 0, false); e != sys.OK {
		t.Fatal(e)
	}
	if e := fs.TruncateInode(Root, ino, 100); e != sys.OK {
		t.Fatal(e)
	}
	if e := fs.TruncateInode(Root, ino, 4096); e != sys.OK {
		t.Fatal(e)
	}
	buf := make([]byte, 4096)
	if _, e := fs.ReadAt(Root, ino, buf, 0); e != sys.OK {
		t.Fatal(e)
	}
	for i := 100; i < 4096; i++ {
		if buf[i] != 0 {
			t.Fatalf("stale byte %#x at %d after shrink+grow", buf[i], i)
		}
	}
	for i := 0; i < 100; i++ {
		if buf[i] != 0xAB {
			t.Fatalf("lost byte at %d", i)
		}
	}
}

// TestPathResolutionProperties: quick-checked invariants of resolution.
func TestPathResolutionProperties(t *testing.T) {
	fs := New(DefaultConfig())
	mustMkdir(t, fs, "/a")
	mustMkdir(t, fs, "/a/b")
	mustCreate(t, fs, "/a/b/f")

	// Redundant slashes and dots never change the result.
	variants := []string{
		"/a/b/f", "//a/b/f", "/a//b/f", "/a/./b/f", "/a/b/./f",
		"/a/b/../b/f", "/./a/b/f", "/a/b//f",
	}
	want, e := fs.Lookup(fs.Root(), Root, "/a/b/f")
	if e != sys.OK {
		t.Fatal(e)
	}
	for _, v := range variants {
		got, e := fs.Lookup(fs.Root(), Root, v)
		if e != sys.OK || got.Ino != want.Ino {
			t.Errorf("lookup(%q) = %+v, %v; want ino %d", v, got, e, want.Ino)
		}
	}
}

// TestRenamePreservesContent: rename is a pure namespace operation.
func TestRenamePreservesContent(t *testing.T) {
	f := func(data []byte) bool {
		fs := New(DefaultConfig())
		res, e := fs.OpenInode(fs.Root(), Root, "/src", sys.O_CREAT|sys.O_RDWR, 0o644)
		if e != sys.OK {
			return false
		}
		if len(data) > 0 {
			if _, e := fs.WriteAt(Root, res.Ino, data, 0, false); e != sys.OK {
				return false
			}
		}
		if e := fs.Rename(fs.Root(), Root, "/src", "/dst"); e != sys.OK {
			return false
		}
		got, e := fs.LookupInode(fs.Root(), Root, "/dst", true)
		if e != sys.OK || got.Size() != int64(len(data)) {
			return false
		}
		buf := make([]byte, len(data))
		n, e := fs.ReadAt(Root, got, buf, 0)
		return e == sys.OK && n == len(data) && bytes.Equal(buf, data)
	}
	cfg := &quick.Config{MaxCount: 50, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestModeNeverExceedsPermMask: chmod can only set permission bits.
func TestModeNeverExceedsPermMask(t *testing.T) {
	f := func(mode uint32) bool {
		fs := New(DefaultConfig())
		ino := mustCreateQ(fs)
		if ino == nil {
			return false
		}
		if e := fs.ChmodInode(Root, ino, mode); e != sys.OK {
			return false
		}
		return ino.Mode()&^uint32(sys.PermMask) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mustCreateQ(fs *FS) *Inode {
	res, e := fs.OpenInode(fs.Root(), Root, "/q", sys.O_CREAT|sys.O_RDWR, 0o644)
	if e != sys.OK {
		return nil
	}
	return res.Ino
}
