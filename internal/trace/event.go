// Package trace provides the tracing substrate that stands in for LTTng in
// this reproduction: an event model for syscall entry/exit records, an
// LTTng-style text serialization (writer + parser), and the stateful
// mount-point filter IOCov applies before analysis.
//
// The simulated kernel emits one Event per completed syscall into a Sink.
// Events can be analyzed live (Collector) or round-tripped through the text
// format the way IOCov consumes LTTng trace files.
package trace

import (
	"slices"
	"strings"

	"iocov/internal/sys"
)

// Event is one completed syscall observation: name, arguments, and outcome.
// Path carries the syscall's primary path argument when it has one, a copy
// of that string argument kept for cheap filtering.
//
// Arguments are recorded with AddArg (numeric: flags, mode, count, ...) and
// AddStr (string: paths, xattr names) and read with Arg/Str or
// EachArg/EachStr. They live in fixed-size inline arrays, which cover every
// syscall the simulated kernel traces, so a typical event allocates
// nothing; an event with more arguments of one kind keeps the rest in a
// spill allocated on first use. Every producer records a name at most once
// per kind: the kernel by construction, the decoders by rejecting a
// repeated name as malformed.
type Event struct {
	// Seq is a monotonically increasing sequence number assigned by the
	// emitting process.
	Seq uint64
	// PID identifies the emitting simulated process.
	PID int
	// Name is the raw syscall name before variant merging, e.g. "openat".
	Name string
	// Path is the primary path argument ("" for fd-only syscalls).
	Path string
	// Ret is the return value (valid when Err == sys.OK).
	Ret int64
	// Err is the errno outcome; sys.OK on success.
	Err sys.Errno

	// Inline argument storage; see AddArg/AddStr. Four numeric slots and
	// two string slots cover every syscall the simulated kernel traces
	// (fallocate's fd/mode/offset/len is the widest).
	iargs [4]argPair
	istrs [2]strPair
	nargs uint8
	nstrs uint8
	// spill is nil until an argument kind outgrows its inline array; from
	// then on it holds all of that kind's arguments. Copies of an event
	// share it.
	spill *argSpill
}

type argPair struct {
	name string
	val  int64
}

type strPair struct {
	name, val string
}

// argSpill holds an event's arguments of each kind that outgrew its inline
// array: the inline pairs first, then the rest in recording order. A nil
// slice means that kind still fits inline.
type argSpill struct {
	args []argPair
	strs []strPair
}

// AddArg records a numeric argument, using inline storage while it lasts.
func (e *Event) AddArg(name string, v int64) {
	if int(e.nargs) < len(e.iargs) {
		e.iargs[e.nargs] = argPair{name, v}
		e.nargs++
		return
	}
	e.spillArg(argPair{name, v})
}

// AddStr records a string argument, using inline storage while it lasts.
func (e *Event) AddStr(name, v string) {
	if int(e.nstrs) < len(e.istrs) {
		e.istrs[e.nstrs] = strPair{name, v}
		e.nstrs++
		return
	}
	e.spillStr(strPair{name, v})
}

func (e *Event) spillArg(p argPair) {
	if e.spill == nil {
		e.spill = new(argSpill)
	}
	if e.spill.args == nil {
		e.spill.args = append(make([]argPair, 0, 2*len(e.iargs)), e.iargs[:]...)
	}
	e.spill.args = append(e.spill.args, p)
}

func (e *Event) spillStr(p strPair) {
	if e.spill == nil {
		e.spill = new(argSpill)
	}
	if e.spill.strs == nil {
		e.spill.strs = append(make([]strPair, 0, 2*len(e.istrs)), e.istrs[:]...)
	}
	e.spill.strs = append(e.spill.strs, p)
}

// args returns the numeric arguments in recording order.
func (e *Event) args() []argPair {
	if e.spill != nil && e.spill.args != nil {
		return e.spill.args
	}
	return e.iargs[:e.nargs]
}

// strs returns the string arguments in recording order.
func (e *Event) strs() []strPair {
	if e.spill != nil && e.spill.strs != nil {
		return e.spill.strs
	}
	return e.istrs[:e.nstrs]
}

// Arg returns a numeric argument and whether it was recorded.
func (e *Event) Arg(name string) (int64, bool) {
	for _, p := range e.args() {
		if p.name == name {
			return p.val, true
		}
	}
	return 0, false
}

// Str returns a string argument and whether it was recorded.
func (e *Event) Str(name string) (string, bool) {
	for _, p := range e.strs() {
		if p.name == name {
			return p.val, true
		}
	}
	return "", false
}

// Failed reports whether the syscall returned an error.
func (e *Event) Failed() bool { return e.Err != sys.OK }

// primaryPathArg reconstructs the event's primary path argument from its
// string arguments in the precedence the kernel layer uses when emitting.
// The parsers call it to rebuild Path after decoding.
func (e *Event) primaryPathArg() string {
	for _, k := range pathArgs {
		if v, ok := e.Str(k); ok {
			return v
		}
	}
	return ""
}

// pathArgs lists the primary path argument's names in precedence order.
var pathArgs = [...]string{"filename", "pathname", "path", "oldname"}

// EachArg calls fn for every numeric argument, in recording order.
func (e *Event) EachArg(fn func(name string, v int64)) {
	for _, p := range e.args() {
		fn(p.name, p.val)
	}
}

// EachStr calls fn for every string argument, in recording order.
func (e *Event) EachStr(fn func(name, v string)) {
	for _, p := range e.strs() {
		fn(p.name, p.val)
	}
}

// sortedArgs returns a copy of the numeric arguments ordered by name, the
// order both writers serialize them in.
func (e *Event) sortedArgs() []argPair {
	s := slices.Clone(e.args())
	slices.SortStableFunc(s, func(a, b argPair) int { return strings.Compare(a.name, b.name) })
	return s
}

// sortedStrs returns a copy of the string arguments ordered by name.
func (e *Event) sortedStrs() []strPair {
	s := slices.Clone(e.strs())
	slices.SortStableFunc(s, func(a, b strPair) int { return strings.Compare(a.name, b.name) })
	return s
}

// Sink receives completed syscall events. Every implementation, Collector
// included, expects one emitting goroutine.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit calls f(ev).
func (f SinkFunc) Emit(ev Event) { f(ev) }

// MultiSink fans an event out to several sinks in order.
type MultiSink []Sink

// Emit delivers ev to every sink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Collector is an in-memory Sink that retains every event, in order.
type Collector struct {
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit appends ev.
func (c *Collector) Emit(ev Event) { c.events = append(c.events, ev) }

// Events returns the collected events (the backing slice; callers must not
// mutate it while still emitting).
func (c *Collector) Events() []Event { return c.events }

// Len returns the number of collected events.
func (c *Collector) Len() int { return len(c.events) }

// Reset discards all collected events.
func (c *Collector) Reset() { c.events = c.events[:0] }

// CountingSink counts events without retaining them; the benchmark harness
// uses it to measure emission overhead in isolation.
type CountingSink struct {
	N int64
}

// Emit increments the counter.
func (c *CountingSink) Emit(Event) { c.N++ }
