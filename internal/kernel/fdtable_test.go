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
// to reach ENFILE too. Every returned descriptor and errno, and the set of
// open descriptors, must match the reference after every step.
func TestFDTableOracle(t *testing.T) {
	nearCap := 0 // successful dup2s onto a target near the 1<<20 cap
	for seed := int64(0); seed < 10; seed++ {
		maxFDs, maxSys := 6, 64
		if seed%2 == 1 {
			maxFDs, maxSys = 8, 5
		}
		k := New(vfs.New(vfs.DefaultConfig()), Options{MaxSystemFiles: maxSys})
		p := k.NewProc(ProcOptions{MaxFDs: maxFDs})
		o := &fdOracle{open: map[int]bool{}, maxFDs: maxFDs, maxSys: maxSys}
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
				if gotE == sys.OK && newfd >= 1<<19 {
					nearCap++
				}
			default:
				what = "closeall"
				p.CloseAll()
				clear(o.open)
			}
			if gotE != wantE || gotE == sys.OK && got != want {
				t.Fatalf("seed %d op %d %s = %d, %v; reference %d, %v", seed, op, what, got, gotE, want, wantE)
			}
			fds := p.OpenFDs()
			slices.Sort(fds)
			if ref := o.fds(); !slices.Equal(fds, ref) {
				t.Fatalf("seed %d op %d %s: open fds %v, reference %v", seed, op, what, fds, ref)
			}
		}
	}
	if nearCap == 0 {
		t.Fatal("no dup2 onto a target near the 1<<20 cap succeeded; the sequence checks none")
	}
}

// fdOracle is the reference descriptor table: the set of open descriptors
// of the one process, which also holds every system-wide slot.
type fdOracle struct {
	open           map[int]bool
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

// limit predicts the errno for taking one more descriptor.
func (o *fdOracle) limit() sys.Errno {
	switch {
	case len(o.open) >= o.maxFDs:
		return sys.EMFILE
	case len(o.open) >= o.maxSys:
		return sys.ENFILE
	}
	return sys.OK
}

func (o *fdOracle) alloc() (int, sys.Errno) {
	if e := o.limit(); e != sys.OK {
		return -1, e
	}
	fd := 3
	for o.open[fd] {
		fd++
	}
	o.open[fd] = true
	return fd, sys.OK
}

func (o *fdOracle) close(fd int) sys.Errno {
	if !o.open[fd] {
		return sys.EBADF
	}
	delete(o.open, fd)
	return sys.OK
}

func (o *fdOracle) dup(fd int) (int, sys.Errno) {
	if !o.open[fd] {
		return -1, sys.EBADF
	}
	return o.alloc()
}

func (o *fdOracle) dup2(fd, newfd int) (int, sys.Errno) {
	switch {
	case !o.open[fd] || newfd < 0 || newfd >= 1<<20:
		return -1, sys.EBADF
	case newfd == fd || o.open[newfd]:
		return newfd, sys.OK
	}
	if e := o.limit(); e != sys.OK {
		return -1, e
	}
	o.open[newfd] = true
	return newfd, sys.OK
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
// free one, a high one below the 1<<20 cap, or an out-of-range one.
func (o *fdOracle) target(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return o.pick(rng)
	case 1:
		return rng.Intn(3)
	case 2:
		return 3 + rng.Intn(12)
	case 3:
		// Rare, since the table then spans a million slots and every
		// OpenFDs check walks them.
		if rng.Intn(8) == 0 {
			return 1<<20 - 1 - rng.Intn(1<<12)
		}
		return 4096 + rng.Intn(1<<12)
	case 4:
		return 1000 + rng.Intn(1000)
	}
	return []int{-1, 1 << 20, 1<<20 + 5}[rng.Intn(3)]
}
