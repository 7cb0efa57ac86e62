package trace

import "regexp"

// refFilter is the reference mount filter: the classifier the switch
// dispatch and flat fd set replaced, kept as an oracle. It tracks
// descriptors in nested pid -> fd maps, matches paths with the compiled
// regexp only (no literal fast path), and still keeps the outside table
// the production filter dropped, so the differential tests and FuzzFilter
// show that the table never influenced a verdict.
type refFilter struct {
	mount   *regexp.Regexp
	fds     map[int]map[int64]string
	outside map[int]map[int64]bool

	kept, dropped int64
}

func newRefFilter(mountPattern string) *refFilter {
	return &refFilter{
		mount:   regexp.MustCompile(mountPattern),
		fds:     make(map[int]map[int64]string),
		outside: make(map[int]map[int64]bool),
	}
}

var refOpenFamily = map[string]bool{
	"open": true, "openat": true, "creat": true, "openat2": true,
}

var refFdSyscalls = map[string]bool{
	"read": true, "pread64": true, "readv": true,
	"write": true, "pwrite64": true, "writev": true,
	"lseek": true, "ftruncate": true, "fchmod": true,
	"close": true, "fchdir": true,
	"fsetxattr": true, "fgetxattr": true, "fremovexattr": true,
	"fsync": true, "fdatasync": true, "fallocate": true,
}

// Keep is Filter.Keep's reference.
func (f *refFilter) Keep(ev *Event) bool {
	keep := f.classify(ev)
	if keep {
		f.kept++
	} else {
		f.dropped++
	}
	return keep
}

// Stats is Filter.Stats's reference.
func (f *refFilter) Stats() (kept, dropped int64) { return f.kept, f.dropped }

func (f *refFilter) classify(ev *Event) bool {
	if refOpenFamily[ev.Name] {
		match := ev.Path != "" && f.mount.MatchString(ev.Path)
		if !ev.Failed() && ev.Ret >= 0 {
			if match {
				f.pidFds(ev.PID)[ev.Ret] = ev.Path
				delete(f.outside[ev.PID], ev.Ret)
			} else {
				f.pidOutside(ev.PID)[ev.Ret] = true
				delete(f.fds[ev.PID], ev.Ret)
			}
		}
		return match
	}
	if ev.Name == "dup" || ev.Name == "dup2" {
		src, ok := ev.Arg("fildes")
		if !ok {
			src, ok = ev.Arg("oldfd")
		}
		if !ok {
			return false
		}
		path, tracked := f.fds[ev.PID][src]
		if !ev.Failed() && ev.Ret >= 0 {
			if tracked {
				f.pidFds(ev.PID)[ev.Ret] = path
				delete(f.outside[ev.PID], ev.Ret)
			} else {
				f.pidOutside(ev.PID)[ev.Ret] = true
				delete(f.fds[ev.PID], ev.Ret)
			}
		}
		return tracked
	}
	if refFdSyscalls[ev.Name] {
		fd, ok := ev.Arg("fd")
		if !ok {
			return false
		}
		_, tracked := f.fds[ev.PID][fd]
		if ev.Name == "close" && !ev.Failed() {
			delete(f.fds[ev.PID], fd)
			delete(f.outside[ev.PID], fd)
		}
		return tracked
	}
	if ev.Path != "" && f.mount.MatchString(ev.Path) {
		return true
	}
	matched := false
	ev.EachStr(func(_, v string) {
		matched = matched || len(v) > 0 && v[0] == '/' && f.mount.MatchString(v)
	})
	return matched
}

func (f *refFilter) pidFds(pid int) map[int64]string {
	m := f.fds[pid]
	if m == nil {
		m = make(map[int64]string)
		f.fds[pid] = m
	}
	return m
}

func (f *refFilter) pidOutside(pid int) map[int64]bool {
	m := f.outside[pid]
	if m == nil {
		m = make(map[int64]bool)
		f.outside[pid] = m
	}
	return m
}
