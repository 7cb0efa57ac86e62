package vfs

import (
	"slices"
	"sort"
)

// extent is a run of n allocated blocks from block start. data holds their
// n*BlockSize bytes, or is nil when they are all zeros, which costs no
// memory.
type extent struct {
	start, n int64
	data     []byte
}

func (r extent) end() int64 { return r.start + r.n }

// find returns the index of the first run of ino that ends after block b.
func (ino *Inode) find(b int64) int {
	return sort.Search(len(ino.runs), func(k int) bool { return ino.runs[k].end() > b })
}

// span returns the runs that overlap or touch blocks [lo, hi) as
// ino.runs[i:j].
func (ino *Inode) span(lo, hi int64) (i, j int) {
	return ino.find(lo - 1), sort.Search(len(ino.runs), func(k int) bool { return ino.runs[k].start > hi })
}

// walk visits bytes [off, end) of ino in order, one piece at a time: the
// part of each run inside the range, and each hole between runs (alloc
// false). data is the piece's bytes, nil for a hole or a zero run.
func (ino *Inode) walk(off, end, bs int64, visit func(from, to int64, data []byte, alloc bool)) {
	pos := off
	for _, r := range ino.runs[ino.find(off/bs):] {
		from, to := max(r.start*bs, pos), min(r.end()*bs, end)
		if from >= end {
			break
		}
		if from > pos {
			visit(pos, from, nil, false)
		}
		var data []byte
		if r.data != nil {
			data = r.data[from-r.start*bs : to-r.start*bs]
		}
		visit(from, to, data, true)
		pos = to
	}
	if pos < end {
		visit(pos, end, nil, false)
	}
}

// holes counts the unallocated blocks under bytes [off, end).
func (ino *Inode) holes(off, end, bs int64) (n int64) {
	ino.walk(off, end, bs, func(from, to int64, _ []byte, alloc bool) {
		if !alloc {
			n += (to-1)/bs - from/bs + 1
		}
	})
	return n
}

// allocate turns the holes in blocks [lo, hi) into zero runs, merged with
// the zero runs they touch; data runs stay as they are.
func (ino *Inode) allocate(lo, hi int64) {
	i, j := ino.span(lo, hi)
	if i < j {
		lo, hi = min(lo, ino.runs[i].start), max(hi, ino.runs[j-1].end())
	}
	var buf [4]extent
	out := buf[:0]
	for _, r := range ino.runs[i:j] {
		if r.data != nil {
			if r.start > lo {
				out = append(out, extent{start: lo, n: r.start - lo})
			}
			out, lo = append(out, r), r.end()
		}
	}
	if hi > lo {
		out = append(out, extent{start: lo, n: hi - lo})
	}
	ino.runs = slices.Replace(ino.runs, i, j, out...)
}

// materialize makes blocks [lo, hi) one data run and returns it. Data runs
// that overlap or touch the range join it whole, so an append grows the
// last run in place; zero runs are cut at the range's ends.
func (ino *Inode) materialize(lo, hi, bs int64) extent {
	i, j := ino.span(lo, hi)
	var buf [3]extent
	out, rest := buf[:0], i // runs[rest:j] are copied into the new run
	run, tail := extent{start: lo}, extent{}
	if i < j {
		if r := ino.runs[i]; r.data != nil && r.start <= lo {
			run, rest = r, i+1
		} else if r.data == nil && r.start < lo {
			out = append(out, extent{start: r.start, n: lo - r.start})
		}
		if r := ino.runs[j-1]; r.data != nil {
			hi = max(hi, r.end())
		} else if r.end() > hi {
			tail = extent{start: hi, n: r.end() - hi}
		}
	}
	kept := len(run.data)
	run.n = hi - run.start
	run.data = slices.Grow(run.data, int(run.n*bs)-kept)[:run.n*bs]
	clear(run.data[kept:])
	for _, r := range ino.runs[rest:j] {
		if r.data != nil {
			copy(run.data[(r.start-run.start)*bs:], r.data)
		}
	}
	if out = append(out, run); tail.n > 0 {
		out = append(out, tail)
	}
	ino.runs = slices.Replace(ino.runs, i, j, out...)
	return run
}

// trim drops the blocks past byte size, cutting the run that straddles it
// and zeroing the rest of its last block, and returns how many allocated
// blocks it dropped; nblocks is kept.
func (ino *Inode) trim(size, bs int64) (freed int64) {
	keep := (size + bs - 1) / bs
	i := ino.find(keep)
	if i < len(ino.runs) && ino.runs[i].start < keep {
		r := &ino.runs[i]
		freed, r.n = r.end()-keep, keep-r.start
		i++
	}
	for _, r := range ino.runs[i:] {
		freed += r.n
	}
	clear(ino.runs[i:])
	ino.runs, ino.nblocks = ino.runs[:i], ino.nblocks-freed
	if i > 0 && ino.runs[i-1].data != nil && ino.runs[i-1].end() == keep {
		r := &ino.runs[i-1]
		r.data = slices.Clip(r.data[:r.n*bs])
		clear(r.data[size-r.start*bs:])
	}
	return freed
}
