package trace

import (
	"regexp"
	"regexp/syntax"
	"strings"
)

// Filter reproduces IOCov's trace filter: file-system testers use a
// dedicated mount point (e.g. /mnt/test for xfstests), and only syscalls
// that touch it should be analyzed. Path-carrying events are matched against
// a mount-point regexp; fd-carrying events are resolved through the fd table
// the filter reconstructs from successful opens, because a raw LTTng trace
// identifies files only by descriptor after the open.
//
// Filter is stateful and single-goroutine, like the analyzer pipeline.
type Filter struct {
	mount *regexp.Regexp
	// lit/litSlash implement the anchored-literal fast path: when the
	// pattern has the canonical harness.MountPattern shape ^<literal>(/|$),
	// matching reduces to path == lit || HasPrefix(path, litSlash), which
	// skips the regexp machine on every event.
	lit      string
	litSlash string
	// box and fds hold the (pid, fd) pairs opened or duplicated from
	// inside the mount and not yet closed. A pair with pid and fd both in
	// [0, boxSize) is bit fd of box[pid]; every other pair, such as a
	// negative or huge one from an untrusted trace, is a key of fds. An
	// out-of-mount open, dup or close merely clears the pair, which is
	// all EBADF reuse after close needs.
	box [boxSize]uint64
	fds map[fdKey]struct{}
	// peak is len(fds)'s high-water mark since the last Reset; a map never
	// shrinks, so peak also measures the memory fds holds on to.
	peak int

	kept    int64
	dropped int64
}

// fdKey names one process's descriptor.
type fdKey struct {
	pid int
	fd  int64
}

// boxSize bounds the pids and fds box holds: one 64-bit word per pid.
const boxSize = 64

// retainFDs bounds the fd map Reset keeps for reuse. Real traces
// hold a handful of descriptors; a pooled filter that served a stream with
// more (only an untrusted trace opens thousands without closing) drops its
// map rather than pin that capacity for every later session.
const retainFDs = 1024

// NewFilter compiles the mount-point pattern. The pattern is matched with
// regexp.MatchString semantics against the syscall's primary path argument,
// so "^/mnt/test(/|$)" selects exactly one mount.
func NewFilter(mountPattern string) (*Filter, error) {
	re, err := regexp.Compile(mountPattern)
	if err != nil {
		return nil, err
	}
	f := &Filter{mount: re}
	f.lit, f.litSlash = mountLiteral(mountPattern)
	return f, nil
}

// Fresh returns a new filter over the same (already compiled) mount
// pattern with empty descriptor-table and accounting state. The ingest
// daemon keeps one compiled prototype and clones it per session, so the
// per-stream setup cost is one struct instead of a regexp compile; the fd
// map is created on the first in-mount open the box cannot hold.
func (f *Filter) Fresh() *Filter {
	return &Filter{mount: f.mount, lit: f.lit, litSlash: f.litSlash}
}

// Reset clears the filter's descriptor-table and accounting state, keeping
// the compiled pattern, so a pooled session can reuse the filter with
// fresh-filter semantics. The box is zeroed and the fd map emptied, not
// dropped, so a recycled filter replays a similar stream without
// allocating; a map grown past retainFDs is dropped instead.
func (f *Filter) Reset() {
	if f.peak > retainFDs {
		f.fds = nil
	} else {
		clear(f.fds)
	}
	f.box = [boxSize]uint64{}
	f.peak = 0
	f.kept, f.dropped = 0, 0
}

// mountLiteral recognizes the ^<literal>(/|$) pattern shape that
// harness.MountPattern produces and returns the bare literal plus its
// "literal/" prefix form. Any other shape returns empty strings and the
// filter falls back to the compiled regexp.
func mountLiteral(pattern string) (lit, litSlash string) {
	if !strings.HasPrefix(pattern, "^") || !strings.HasSuffix(pattern, "(/|$)") {
		return "", ""
	}
	body := pattern[1 : len(pattern)-len("(/|$)")]
	if body == "" || regexp.QuoteMeta(body) != body {
		return "", ""
	}
	// QuoteMeta passing still admits non-metacharacter operators that a
	// parse reveals (nothing today, but cheap insurance): require the body
	// to parse as a pure literal.
	re, err := syntax.Parse(body, syntax.Perl)
	if err != nil || re.Simplify().Op != syntax.OpLiteral {
		return "", ""
	}
	return body, body + "/"
}

// matchMount reports whether path is under the filtered mount, preferring
// the literal-prefix fast path over the regexp.
func (f *Filter) matchMount(path string) bool {
	if f.lit != "" {
		return path == f.lit || strings.HasPrefix(path, f.litSlash)
	}
	return f.mount.MatchString(path)
}

// Keep decides whether ev belongs to the filesystem under test, updating the
// reconstructed fd table as a side effect. Events must be offered in trace
// order.
func (f *Filter) Keep(ev Event) bool { return f.KeepRef(&ev) }

// KeepRef is Keep without the event copy: the batch-decode ingest path
// offers its reused decode event by pointer. The event is not retained or
// mutated.
func (f *Filter) KeepRef(ev *Event) bool {
	keep := f.classify(ev)
	if keep {
		f.kept++
	} else {
		f.dropped++
	}
	return keep
}

// classify decides scope from first principles: open-family path match,
// descriptor propagation through dup, then any absolute string argument
// under the mount.
func (f *Filter) classify(ev *Event) bool {
	switch ev.Name {
	case "open", "openat", "creat", "openat2":
		// Success installs a descriptor, in scope iff the path is.
		match := ev.Path != "" && f.matchMount(ev.Path)
		if !ev.Failed() && ev.Ret >= 0 {
			f.setFD(ev.PID, ev.Ret, match)
		}
		return match
	case "dup", "dup2":
		// A duplicate of an in-mount descriptor is itself in scope.
		src, ok := ev.Arg("fildes")
		if !ok {
			src, ok = ev.Arg("oldfd")
		}
		if !ok {
			return false
		}
		tracked := f.tracked(ev.PID, src)
		if !ev.Failed() && ev.Ret >= 0 {
			f.setFD(ev.PID, ev.Ret, tracked)
		}
		return tracked
	case "close":
		fd, ok := ev.Arg("fd")
		if !ok {
			return false
		}
		tracked := f.tracked(ev.PID, fd)
		if !ev.Failed() {
			f.setFD(ev.PID, fd, false)
		}
		return tracked
	case "read", "pread64", "readv",
		"write", "pwrite64", "writev",
		"lseek", "ftruncate", "fchmod", "fchdir",
		"fsetxattr", "fgetxattr", "fremovexattr",
		"fsync", "fdatasync", "fallocate":
		fd, ok := ev.Arg("fd")
		return ok && f.tracked(ev.PID, fd)
	}
	// Path-based syscalls (truncate, mkdir, chmod, chdir, *xattr, ...).
	// Two-path syscalls (rename, link, symlink) are in scope when either
	// side touches the mount, so every absolute string argument is
	// checked, not just the primary path.
	if ev.Path != "" && f.matchMount(ev.Path) {
		return true
	}
	for _, p := range ev.strs() {
		if len(p.val) > 0 && p.val[0] == '/' && f.matchMount(p.val) {
			return true
		}
	}
	return false
}

// Apply filters a slice of events, returning the kept ones in order.
func (f *Filter) Apply(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for i := range events {
		if f.KeepRef(&events[i]) {
			out = append(out, events[i])
		}
	}
	return out
}

// Stats reports how many events were kept and dropped so far.
func (f *Filter) Stats() (kept, dropped int64) { return f.kept, f.dropped }

// tracked reports whether pid's fd was opened (or duplicated) from inside
// the mount and is still open.
func (f *Filter) tracked(pid int, fd int64) bool {
	if uint(pid) < boxSize && uint64(fd) < boxSize {
		return f.box[pid]&(1<<fd) != 0
	}
	_, ok := f.fds[fdKey{pid, fd}]
	return ok
}

// setFD records whether pid's fd refers to a file under the mount.
func (f *Filter) setFD(pid int, fd int64, in bool) {
	if uint(pid) < boxSize && uint64(fd) < boxSize {
		if in {
			f.box[pid] |= 1 << fd
		} else {
			f.box[pid] &^= 1 << fd
		}
		return
	}
	k := fdKey{pid, fd}
	if !in {
		delete(f.fds, k)
		return
	}
	if f.fds == nil {
		f.fds = make(map[fdKey]struct{})
	}
	f.fds[k] = struct{}{}
	if len(f.fds) > f.peak {
		f.peak = len(f.fds)
	}
}

// FilteringSink wraps a Sink, forwarding only events the Filter keeps. It
// lets a live tracer drop out-of-scope syscalls before they reach the
// analyzer, the way IOCov's pipeline discards non-test records.
type FilteringSink struct {
	F    *Filter
	Next Sink
}

// Emit forwards ev when the filter keeps it, offering it to the filter by
// pointer so the event is copied only into Next.
func (s *FilteringSink) Emit(ev Event) {
	if s.F.KeepRef(&ev) {
		s.Next.Emit(ev)
	}
}
