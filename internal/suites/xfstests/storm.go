package xfstests

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"iocov/internal/suites/workload"
	"iocov/internal/sys"
)

// Each storm phase is split into a fixed number of chunks so the phase can
// be distributed over shards. Chunk counts are constants — they must not
// depend on the shard count, or the generated workload would change with
// the worker pool size. Every chunk is self-contained: it creates its own
// scratch files (chunk-scoped names), draws from its own item RNG, and
// cleans up before finishing.
const (
	chunksOpens     = 32
	chunksWrites    = 16
	chunksReads     = 16
	chunksLseeks    = 8
	chunksTruncates = 8
	chunksMkdirs    = 8
	chunksChmods    = 8
	chunksXattrs    = 8
)

// storm runs the distribution-driven bulk of the suite. The scenario
// templates (tests.go) give the run its error-path breadth; the storm gives
// it the paper's magnitudes: open-flag frequencies, Table 1 combination
// percentages, and the Figure 3 write-size profile all emerge from the
// weights in xfstests.go.
func (r *runner) storm() {
	r.stormPhase(chunksOpens, workload.ScaleCount(stormOpens, r.cfg.Scale), r.stormOpens)
	r.stormPhase(chunksWrites, workload.ScaleCount(stormWrites, r.cfg.Scale), r.stormWrites)
	r.stormPhase(chunksReads, workload.ScaleCount(stormReads, r.cfg.Scale), r.stormReads)
	r.stormPhase(chunksLseeks, workload.ScaleCount(stormLseeks, r.cfg.Scale), r.stormLseeks)
	r.stormPhase(chunksTruncates, workload.ScaleCount(stormTruncates, r.cfg.Scale), r.stormTruncates)
	r.stormPhase(chunksMkdirs, workload.ScaleCount(stormMkdirs, r.cfg.Scale), r.stormMkdirs)
	r.stormPhase(chunksChmods, workload.ScaleCount(stormChmods, r.cfg.Scale), r.stormChmods)
	// The xattr phase interleaves two op budgets (sets then gets), so its
	// chunks are dispatched explicitly with both ranges.
	nset := workload.ScaleCount(stormSetxattrs, r.cfg.Scale)
	nget := workload.ScaleCount(stormGetxattrs, r.cfg.Scale)
	for c := 0; c < chunksXattrs; c++ {
		slo, shi := workload.ChunkRange(nset, chunksXattrs, c)
		glo, ghi := workload.ChunkRange(nget, chunksXattrs, c)
		if slo >= shi && glo >= ghi {
			continue
		}
		r.item(func() { r.stormXattrs(c, slo, shi, glo, ghi) })
	}
}

// stormPhase dispatches one phase's op budget as chunk work items. Empty
// chunks (n < chunks) are skipped before item assignment; emptiness depends
// only on (n, chunks, c), so the item enumeration stays shard-invariant.
func (r *runner) stormPhase(chunks, n int, fn func(c, lo, hi int)) {
	for c := 0; c < chunks; c++ {
		lo, hi := workload.ChunkRange(n, chunks, c)
		if lo >= hi {
			continue
		}
		r.item(func() { fn(c, lo, hi) })
	}
}

func (r *runner) stormOpens(c, lo, hi int) {
	p := r.root
	for i := lo; i < hi; i++ {
		flags := openCombos.Pick(r.rng)
		var path string
		excl := flags&sys.O_EXCL != 0
		switch {
		case flags&sys.O_DIRECTORY != 0:
			path = r.poolDirs[r.rng.Intn(len(r.poolDirs))]
		case excl:
			// The global op index keeps exclusive-create names unique
			// across chunks.
			path = r.mnt + "/excl-" + strconv.Itoa(i)
		default:
			path = r.poolFiles[r.rng.Intn(len(r.poolFiles))]
		}
		var fd int
		var e sys.Errno
		switch v := r.rng.Intn(100); {
		case v < 70:
			fd, e = p.Open(path, flags, 0o644)
		case v < 95:
			fd, e = p.Openat(sys.AT_FDCWD, path, flags, 0o644)
		case v < 99:
			fd, e = p.Openat2(sys.AT_FDCWD, path, kernelOpenHow(flags, 0o644, 0))
		default:
			// creat carries no flags word, so it contributes to output
			// coverage and variant merging without touching Table 1.
			name := r.mnt + "/creat-" + strconv.Itoa(i)
			fd, e = p.Creat(name, 0o644)
			if e == sys.OK {
				r.check(p.Close(fd))
				r.check(p.Unlink(name))
			} else {
				r.check(e)
			}
			continue
		}
		r.check(e)
		if e == sys.OK {
			r.check(p.Close(fd))
			if excl {
				r.check(p.Unlink(path))
			}
		}
	}
}

func (r *runner) stormWrites(c, lo, hi int) {
	p := r.root
	small := fmt.Sprintf("%s/storm-w-c%02d", r.mnt, c)
	big := fmt.Sprintf("%s/storm-wbig-c%02d", r.mnt, c)
	sfd, e := p.Open(small, sys.O_CREAT|sys.O_WRONLY|sys.O_TRUNC, 0o644)
	r.check(e)
	bfd, e2 := p.Open(big, sys.O_CREAT|sys.O_WRONLY|sys.O_TRUNC, 0o644)
	r.check(e2)
	if e != sys.OK || e2 != sys.OK {
		return
	}
	const smallLimit = 4 << 20 // rotate the sequential file at 4 MiB
	var pos int64
	for i := lo; i < hi; i++ {
		size := writeSizes.Pick(r.rng)
		switch {
		case size > smallLimit:
			// Big writes land at offset 0 of the dedicated file so the
			// filesystem footprint stays bounded at one max-size extent.
			_, we := p.Pwrite64(bfd, r.buf.Get(size), 0)
			r.check(we)
		case r.rng.Intn(100) < 8:
			_, we := p.Pwrite64(sfd, r.buf.Get(size), int64(r.rng.Intn(smallLimit)))
			r.check(we)
		case r.rng.Intn(100) < 5 && size >= 2:
			half := size / 2
			_, we := p.Writev(sfd, [][]byte{r.buf.Get(half), r.buf.Get(size - half)})
			r.check(we)
			pos += size
		default:
			_, we := p.Write(sfd, r.buf.Get(size))
			r.check(we)
			pos += size
		}
		if pos > smallLimit {
			_, se := p.Lseek(sfd, 0, sys.SEEK_SET)
			r.check(se)
			pos = 0
		}
	}
	r.check(p.Close(sfd))
	r.check(p.Close(bfd))
	r.check(p.Unlink(small))
	r.check(p.Unlink(big))
}

// maxStormRead bounds the storm's read sizes.
const maxStormRead = 1 << 20

// readBufs recycles the storm's read buffers across chunks, runners and
// shards, so a run allocates none in steady state and a parallel run no
// more than a serial one. Reads write into the buffer, so it cannot be a
// view of the shared zero arena that writes draw from; its contents never
// reach the trace.
var readBufs = sync.Pool{New: func() any { return new([maxStormRead]byte) }}

func (r *runner) stormReads(c, lo, hi int) {
	p := r.root
	f := fmt.Sprintf("%s/storm-r-c%02d", r.mnt, c)
	wfd, e := p.Open(f, sys.O_CREAT|sys.O_WRONLY|sys.O_TRUNC, 0o644)
	r.check(e)
	if e != sys.OK {
		return
	}
	const fileSize = 1 << 20
	_, we := p.Write(wfd, r.buf.Get(fileSize))
	r.check(we)
	r.check(p.Close(wfd))
	fd, e := p.Open(f, sys.O_RDONLY, 0)
	r.check(e)
	if e != sys.OK {
		return
	}
	rb := readBufs.Get().(*[maxStormRead]byte)
	defer readBufs.Put(rb)
	rbuf := rb[:]
	var pos int64
	for i := lo; i < hi; i++ {
		size := readSizes.Pick(r.rng)
		switch v := r.rng.Intn(100); {
		case v < 15:
			_, re := p.Pread64(fd, rbuf[:size], int64(r.rng.Intn(fileSize)))
			r.check(re)
		case v < 20 && size >= 2:
			half := size / 2
			_, re := p.Readv(fd, [][]byte{rbuf[:half], rbuf[half:size]})
			r.check(re)
			pos += size
		default:
			_, re := p.Read(fd, rbuf[:size])
			r.check(re)
			pos += size
		}
		if pos >= fileSize {
			_, se := p.Lseek(fd, 0, sys.SEEK_SET)
			r.check(se)
			pos = 0
		}
	}
	r.check(p.Close(fd))
	r.check(p.Unlink(f))
}

// seekOffsets is the lseek storm's offset distribution, uncapped.
var seekOffsets = workload.NewSizeDist([]workload.BucketWeight{
	{Bucket: -1, Weight: 30}, {Bucket: 0, Weight: 4}, {Bucket: 4, Weight: 6},
	{Bucket: 9, Weight: 12}, {Bucket: 12, Weight: 20}, {Bucket: 16, Weight: 14},
	{Bucket: 19, Weight: 8}, {Bucket: 24, Weight: 3}, {Bucket: 30, Weight: 1},
}, 0)

func (r *runner) stormLseeks(c, lo, hi int) {
	p := r.root
	f := fmt.Sprintf("%s/storm-s-c%02d", r.mnt, c)
	fd, e := p.Open(f, sys.O_CREAT|sys.O_RDWR, 0o644)
	r.check(e)
	if e != sys.OK {
		return
	}
	_, we := p.Write(fd, r.buf.Get(1<<20))
	r.check(we)
	for i := lo; i < hi; i++ {
		off := seekOffsets.Pick(r.rng)
		var whence int
		switch v := r.rng.Intn(1000); {
		case v < 700:
			whence = sys.SEEK_SET
		case v < 850:
			whence = sys.SEEK_CUR
			if r.rng.Intn(4) == 0 {
				off = -off // negative relative seeks
			}
		case v < 950:
			whence = sys.SEEK_END
			off = -off // stay inside the file
		case v < 975:
			whence = sys.SEEK_DATA
		default:
			whence = sys.SEEK_HOLE
		}
		_, se := p.Lseek(fd, off, whence)
		r.check(se)
	}
	r.check(p.Close(fd))
	r.check(p.Unlink(f))
}

func (r *runner) stormTruncates(c, lo, hi int) {
	p := r.root
	f := fmt.Sprintf("%s/storm-t-c%02d", r.mnt, c)
	fd, e := p.Open(f, sys.O_CREAT|sys.O_RDWR, 0o644)
	r.check(e)
	if e != sys.OK {
		return
	}
	for i := lo; i < hi; i++ {
		length := truncLengths.Pick(r.rng)
		if r.rng.Intn(10) < 3 {
			r.check(p.Ftruncate(fd, length))
		} else {
			r.check(p.Truncate(f, length))
		}
	}
	r.check(p.Ftruncate(fd, 0))
	r.check(p.Close(fd))
	r.check(p.Unlink(f))
}

func (r *runner) stormMkdirs(c, lo, hi int) {
	p := r.root
	n := hi - lo
	// Op j uses the chunk's name j%256, so the names are built once.
	prefix := r.mnt + "/storm-d-c" + zeroPad(c, 2) + "-"
	dirs := make([]string, min(n, 256))
	for j := range dirs {
		dirs[j] = prefix + zeroPad(j, 3)
	}
	for j := 0; j < n; j++ {
		d := dirs[j%256]
		mode := mkdirModes[r.rng.Intn(len(mkdirModes))]
		if r.rng.Intn(5) == 0 {
			r.check(p.Mkdirat(sys.AT_FDCWD, d, mode))
		} else {
			r.check(p.Mkdir(d, mode))
		}
		if j%256 >= 128 || r.rng.Intn(2) == 0 {
			r.check(p.Rmdir(d))
		}
	}
	// Sweep the chunk's name space so nothing leaks past the item.
	for _, d := range dirs {
		_ = p.Rmdir(d)
	}
}

// zeroPad formats a non-negative v as fmt's %0*d does.
func zeroPad(v, width int) string {
	s := strconv.Itoa(v)
	return strings.Repeat("0", max(0, width-len(s))) + s
}

func (r *runner) stormChmods(c, lo, hi int) {
	p := r.root
	fd, e := p.Open(r.poolFiles[0], sys.O_RDWR, 0)
	r.check(e)
	for i := lo; i < hi; i++ {
		mode := chmodModes[r.rng.Intn(len(chmodModes))]
		target := r.poolFiles[r.rng.Intn(len(r.poolFiles))]
		switch v := r.rng.Intn(10); {
		case v < 6:
			r.check(p.Chmod(target, mode))
		case v < 8 && e == sys.OK:
			r.check(p.Fchmod(fd, mode))
		default:
			r.check(p.Fchmodat(sys.AT_FDCWD, target, mode, 0))
		}
	}
	if e == sys.OK {
		r.check(p.Close(fd))
	}
	// Restore pool permissions before the item ends, so no later item's
	// behavior can depend on which shard ran this chunk.
	for _, f := range r.poolFiles {
		r.check(p.Chmod(f, 0o666))
	}
}

// stormXattrNames are the four xattr names the xattr storm cycles through.
var stormXattrNames = [4]string{"user.s0", "user.s1", "user.s2", "user.s3"}

func (r *runner) stormXattrs(c, slo, shi, glo, ghi int) {
	p := r.root
	f := fmt.Sprintf("%s/storm-x-c%02d", r.mnt, c)
	link := fmt.Sprintf("%s/storm-xl-c%02d", r.mnt, c)
	fd, e := p.Open(f, sys.O_CREAT|sys.O_RDWR, 0o644)
	r.check(e)
	if e != sys.OK {
		return
	}
	r.check(p.Symlink(f, link))
	for i := slo; i < shi; i++ {
		name := stormXattrNames[i%4]
		size := xattrSizes.Pick(r.rng)
		var flags int
		switch v := r.rng.Intn(10); {
		case v < 8:
			flags = 0
		case v < 9:
			flags = sys.XATTR_CREATE
		default:
			flags = sys.XATTR_REPLACE
		}
		switch v := r.rng.Intn(10); {
		case v < 7:
			r.check(p.Setxattr(f, name, r.buf.Get(size), flags))
		case v < 9:
			r.check(p.Fsetxattr(fd, name, r.buf.Get(size), flags))
		default:
			r.check(p.Lsetxattr(link, name, r.buf.Get(size), flags))
		}
	}
	gbuf := make([]byte, 1<<16)
	for i := glo; i < ghi; i++ {
		name := stormXattrNames[i%4]
		if r.rng.Intn(10) == 0 {
			name = "user.absent" // ENODATA path
		}
		size := xattrSizes.Pick(r.rng)
		if size > int64(len(gbuf)) {
			size = int64(len(gbuf))
		}
		switch v := r.rng.Intn(10); {
		case v < 7:
			_, ge := p.Getxattr(f, name, gbuf[:size])
			r.check(ge)
		case v < 9:
			_, ge := p.Fgetxattr(fd, name, gbuf[:size])
			r.check(ge)
		default:
			_, ge := p.Lgetxattr(link, name, gbuf[:size])
			r.check(ge)
		}
	}
	r.check(p.Close(fd))
	r.check(p.Unlink(link))
	r.check(p.Unlink(f))
}
