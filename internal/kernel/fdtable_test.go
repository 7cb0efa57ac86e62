package kernel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/vfs"
)

// TestFDTableOracle runs seeded random sequences of Open, Close, Dup, Dup2
// and CloseAll against a map-based reference table, with a small MaxFDs so
// that EMFILE strikes often; odd seeds set the system-wide limit below it
// to reach ENFILE too. Every returned descriptor and errno, the set of
// open descriptors and the number of system-wide slots held must match the
// reference after every step.
func TestFDTableOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		maxFDs, maxSys := 6, 64
		if seed%2 == 1 {
			maxFDs, maxSys = 8, 5
		}
		k := New(vfs.New(vfs.DefaultConfig()), Options{MaxSystemFiles: maxSys})
		p := k.NewProc(ProcOptions{MaxFDs: maxFDs})
		o := &fdOracle{open: map[int]int{}, refs: map[int]int{}, maxFDs: maxFDs, maxSys: maxSys}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 300; op++ {
			var what string
			var got, want int
			var gotE, wantE sys.Errno
			switch r := rng.Intn(20); {
			case r < 6:
				what = "open"
				got, gotE = p.Open("/f", sys.O_CREAT|sys.O_RDWR, 0o644)
				want, wantE = o.alloc()
			case r < 10:
				fd := o.pick(rng)
				what = fmt.Sprintf("close(%d)", fd)
				gotE, wantE = p.Close(fd), o.close(fd)
			case r < 13:
				fd := o.pick(rng)
				what = fmt.Sprintf("dup(%d)", fd)
				got, gotE = p.Dup(fd)
				want, wantE = o.dup(fd)
			case r < 19:
				fd, newfd := o.pick(rng), o.target(rng)
				what = fmt.Sprintf("dup2(%d, %d)", fd, newfd)
				got, gotE = p.Dup2(fd, newfd)
				want, wantE = o.dup2(fd, newfd)
			default:
				what = "closeall"
				p.CloseAll()
				clear(o.open)
				clear(o.refs)
			}
			if gotE != wantE || gotE == sys.OK && got != want {
				t.Fatalf("seed %d op %d %s = %d, %v; reference %d, %v", seed, op, what, got, gotE, want, wantE)
			}
			fds := p.OpenFDs()
			slices.Sort(fds)
			if ref := o.fds(); !slices.Equal(fds, ref) {
				t.Fatalf("seed %d op %d %s: open fds %v, reference %v", seed, op, what, fds, ref)
			}
			if k.openSys != len(o.refs) {
				t.Fatalf("seed %d op %d %s: %d system-wide slots held, reference %d", seed, op, what, k.openSys, len(o.refs))
			}
		}
	}
}

// fdOracle is the reference descriptor table of the one process: each
// open descriptor names an open file description, and each description
// holds one system-wide slot while any descriptor refers to it.
type fdOracle struct {
	open           map[int]int // fd -> description
	refs           map[int]int // description -> descriptors
	next           int         // the next description's name
	maxFDs, maxSys int
}

// fds returns the open descriptors in ascending order.
func (o *fdOracle) fds() []int {
	out := make([]int, 0, len(o.open))
	for fd := range o.open {
		out = append(out, fd)
	}
	slices.Sort(out)
	return out
}

// isOpen reports whether fd is an open descriptor.
func (o *fdOracle) isOpen(fd int) bool {
	_, ok := o.open[fd]
	return ok
}

// alloc opens a new description at the lowest free descriptor: EMFILE
// when the process is at its limit, then ENFILE when every system-wide
// slot is held.
func (o *fdOracle) alloc() (int, sys.Errno) {
	switch {
	case len(o.open) >= o.maxFDs:
		return -1, sys.EMFILE
	case len(o.refs) >= o.maxSys:
		return -1, sys.ENFILE
	}
	o.next++
	return o.install(o.lowest(), o.next), sys.OK
}

// lowest returns the lowest free descriptor from 3 up.
func (o *fdOracle) lowest() int {
	fd := 3
	for o.isOpen(fd) {
		fd++
	}
	return fd
}

// install points fd at description d.
func (o *fdOracle) install(fd, d int) int {
	o.open[fd] = d
	o.refs[d]++
	return fd
}

// drop closes fd, freeing its description's slot with the last reference.
func (o *fdOracle) drop(fd int) {
	d := o.open[fd]
	delete(o.open, fd)
	if o.refs[d]--; o.refs[d] == 0 {
		delete(o.refs, d)
	}
}

func (o *fdOracle) close(fd int) sys.Errno {
	if !o.isOpen(fd) {
		return sys.EBADF
	}
	o.drop(fd)
	return sys.OK
}

// dup shares fd's description, so it can hit EMFILE but never ENFILE.
func (o *fdOracle) dup(fd int) (int, sys.Errno) {
	switch {
	case !o.isOpen(fd):
		return -1, sys.EBADF
	case len(o.open) >= o.maxFDs:
		return -1, sys.EMFILE
	}
	return o.install(o.lowest(), o.open[fd]), sys.OK
}

func (o *fdOracle) dup2(fd, newfd int) (int, sys.Errno) {
	switch {
	case !o.isOpen(fd) || newfd < 0 || newfd >= o.maxFDs:
		return -1, sys.EBADF
	case newfd == fd:
		return newfd, sys.OK
	case o.isOpen(newfd):
		d := o.open[fd]
		o.drop(newfd)
		return o.install(newfd, d), sys.OK
	case len(o.open) >= o.maxFDs:
		return -1, sys.EMFILE
	}
	return o.install(newfd, o.open[fd]), sys.OK
}

// pick returns a source descriptor: mostly an open one, otherwise a
// closed, standard, negative or never-used one.
func (o *fdOracle) pick(rng *rand.Rand) int {
	if len(o.open) > 0 && rng.Intn(3) > 0 {
		fds := o.fds()
		return fds[rng.Intn(len(fds))]
	}
	return []int{-1, 0, 2, 3, 4, 9, 1 << 20}[rng.Intn(7)]
}

// target returns a dup2 target: an open descriptor, one of 0–2, a small
// one on either side of the limit, the last one below it or the limit
// itself, or a high or negative one.
func (o *fdOracle) target(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return o.pick(rng)
	case 1:
		return rng.Intn(3)
	case 2:
		return 3 + rng.Intn(12)
	case 3:
		return o.maxFDs - 1 + rng.Intn(2)
	case 4:
		return 1000 + rng.Intn(1000)
	}
	return []int{-1, 1 << 20, 1<<20 + 5}[rng.Intn(3)]
}
