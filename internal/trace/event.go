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
	"sort"

	"iocov/internal/sys"
)

// Event is one completed syscall observation: name, arguments, and outcome.
// Numeric arguments live in Args; string arguments (paths, xattr names) in
// Strs. Path carries the syscall's primary path argument when it has one,
// duplicated from Strs for cheap filtering.
//
// Arguments have two equivalent representations. Producers that build
// events by hand (parsers, tests, the syz executor) populate the Args/Strs
// maps directly. Hot-path producers (the simulated kernel) record through
// AddArg/AddStr, which fill fixed-size inline storage first and spill to
// the maps only past capacity, so a typical syscall event allocates
// nothing. The Arg/Str accessors and the serializers read both
// representations; no syscall records the same key twice.
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
	// Args holds the numeric arguments keyed by their ABI names
	// ("flags", "mode", "count", "offset", "whence", "size", ...).
	Args map[string]int64
	// Strs holds string arguments keyed by name ("filename", "name", ...).
	Strs map[string]string
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
}

type argPair struct {
	name string
	val  int64
}

type strPair struct {
	name, val string
}

// AddArg records a numeric argument, using inline storage while it lasts
// and spilling to the Args map past capacity.
//
//iocov:hotpath
func (e *Event) AddArg(name string, v int64) {
	if int(e.nargs) < len(e.iargs) {
		e.iargs[e.nargs] = argPair{name, v}
		e.nargs++
		return
	}
	if e.Args == nil {
		e.Args = make(map[string]int64)
	}
	e.Args[name] = v
}

// AddStr records a string argument, using inline storage while it lasts
// and spilling to the Strs map past capacity.
//
//iocov:hotpath
func (e *Event) AddStr(name, v string) {
	if int(e.nstrs) < len(e.istrs) {
		e.istrs[e.nstrs] = strPair{name, v}
		e.nstrs++
		return
	}
	if e.Strs == nil {
		e.Strs = make(map[string]string)
	}
	e.Strs[name] = v
}

// Arg returns a numeric argument and whether it was recorded. nargs never
// exceeds len(iargs): AddArg spills to the Args map once the inline array
// is full.
//
//iocov:hotpath
func (e *Event) Arg(name string) (int64, bool) {
	for i := 0; i < int(e.nargs); i++ {
		if e.iargs[i].name == name {
			return e.iargs[i].val, true
		}
	}
	v, ok := e.Args[name]
	return v, ok
}

// Str returns a string argument and whether it was recorded. nstrs never
// exceeds len(istrs): AddStr spills to the Strs map once the inline array
// is full.
//
//iocov:hotpath
func (e *Event) Str(name string) (string, bool) {
	for i := 0; i < int(e.nstrs); i++ {
		if e.istrs[i].name == name {
			return e.istrs[i].val, true
		}
	}
	v, ok := e.Strs[name]
	return v, ok
}

// Failed reports whether the syscall returned an error.
func (e *Event) Failed() bool { return e.Err != sys.OK }

// primaryPathArg reconstructs the event's primary path argument from its
// string arguments — inline or spilled — in the precedence the kernel layer
// uses when emitting. The parsers call it to rebuild Path after decoding.
//
//iocov:hotpath
func (e *Event) primaryPathArg() string {
	if v, ok := e.Str("filename"); ok {
		return v
	}
	if v, ok := e.Str("pathname"); ok {
		return v
	}
	if v, ok := e.Str("path"); ok {
		return v
	}
	if v, ok := e.Str("oldname"); ok {
		return v
	}
	return ""
}

// EachArg calls fn for every numeric argument, in unspecified order.
func (e *Event) EachArg(fn func(name string, v int64)) {
	for i := 0; i < int(e.nargs); i++ {
		fn(e.iargs[i].name, e.iargs[i].val)
	}
	for k, v := range e.Args {
		fn(k, v)
	}
}

// EachStr calls fn for every string argument, in unspecified order.
func (e *Event) EachStr(fn func(name, v string)) {
	for i := 0; i < int(e.nstrs); i++ {
		fn(e.istrs[i].name, e.istrs[i].val)
	}
	for k, v := range e.Strs {
		fn(k, v)
	}
}

// numArgs returns the total numeric argument count across both
// representations.
func (e *Event) numArgs() int { return int(e.nargs) + len(e.Args) }

// numStrs returns the total string argument count across both
// representations.
func (e *Event) numStrs() int { return int(e.nstrs) + len(e.Strs) }

// argNames returns the numeric argument keys in deterministic order.
func (e *Event) argNames() []string {
	names := make([]string, 0, e.numArgs())
	for i := 0; i < int(e.nargs); i++ {
		names = append(names, e.iargs[i].name)
	}
	for k := range e.Args {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// strNames returns the string argument keys in deterministic order.
func (e *Event) strNames() []string {
	names := make([]string, 0, e.numStrs())
	for i := 0; i < int(e.nstrs); i++ {
		names = append(names, e.istrs[i].name)
	}
	for k := range e.Strs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
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
//
//iocov:hotpath
func (c *CountingSink) Emit(Event) { c.N++ }
