package trace

import (
	"math/bits"
	"math/rand"
	"testing"

	"iocov/internal/sys"
)

// boxEdges are pids and fds on both sides of the filter's box: negative,
// its first and last slots, the first value past it, and values only an
// untrusted trace carries.
var boxEdges = []int64{-1, 0, 63, 64, 1<<31 - 1, 1 << 62}

// inBox reports whether the filter holds the pair in its box.
func inBox(pid int, fd int64) bool {
	return pid >= 0 && pid < boxSize && fd >= 0 && fd < boxSize
}

// TestFilterBoxMatchesReference replays seeded random open, dup, dup2,
// close and read sequences whose pids and fds straddle the box edge, and
// requires every verdict to equal the reference filter's. After every
// event the box must hold exactly the reference's live in-box pairs and
// the map exactly its other live pairs, one entry each, so a huge pid or
// fd never grows anything but the map.
func TestFilterBoxMatchesReference(t *testing.T) {
	const pattern = `^/mnt/test(/|$)`
	pick := func(rng *rand.Rand) int64 {
		if rng.Intn(4) == 0 {
			return int64(rng.Intn(8))
		}
		return boxEdges[rng.Intn(len(boxEdges))]
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f, err := NewFilter(pattern)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefFilter(pattern)
		for n := 0; n < 2000; n++ {
			pid, fd, ret := int(pick(rng)), pick(rng), pick(rng)
			var ev Event
			switch rng.Intn(6) {
			case 0:
				path := "/tmp/x"
				if rng.Intn(3) > 0 {
					path = "/mnt/test/x"
				}
				ev = Event{Name: "openat", Path: path, Ret: ret}
				ev.AddStr("filename", path)
			case 1:
				ev = Event{Name: "dup", Ret: ret}
				ev.AddArg("fildes", fd)
			case 2:
				ev = Event{Name: "dup2", Ret: ret}
				ev.AddArg("oldfd", fd)
				ev.AddArg("newfd", ret)
			case 3:
				ev = Event{Name: "close"}
				ev.AddArg("fd", fd)
			default:
				ev = Event{Name: "read", Ret: 1}
				ev.AddArg("fd", fd)
			}
			ev.PID = pid
			if rng.Intn(8) == 0 {
				ev.Err, ev.Ret = sys.EBADF, -int64(sys.EBADF)
			}
			if got, want := f.KeepRef(&ev), ref.Keep(&ev); got != want {
				t.Fatalf("seed %d event %d (%s pid %d fd %d ret %d): Keep = %v, reference %v",
					seed, n, ev.Name, pid, fd, ev.Ret, got, want)
			}
			var boxed, mapped int
			for rpid, fds := range ref.fds {
				for rfd := range fds {
					if inBox(rpid, rfd) {
						boxed++
					} else {
						mapped++
					}
				}
			}
			held := 0
			for _, w := range f.box {
				held += bits.OnesCount64(w)
			}
			if held != boxed || len(f.fds) != mapped {
				t.Fatalf("seed %d event %d: box holds %d pairs and map %d, reference %d in the box and %d outside",
					seed, n, held, len(f.fds), boxed, mapped)
			}
		}
	}
}
