package kernel

import (
	"sync"

	"iocov/internal/sys"
)

// FaultSet injects errno failures at the syscall boundary. The paper notes
// that some output partitions (ENOMEM, EINTR, ENFILE, EIO, ...) require
// system states a tester cannot easily construct; fault injection is the
// substrate that makes those exit paths reachable so output coverage can be
// exercised and measured.
//
// Rules match a syscall's base behaviour before it executes: when a rule
// fires, the syscall fails with the rule's errno and the event is traced
// like any real failure.
type FaultSet struct {
	mu    sync.Mutex
	rules []*FaultRule
}

// FaultRule describes one injection.
type FaultRule struct {
	// Syscall is the raw syscall name to match; "" matches every syscall.
	Syscall string
	// Errno is the injected failure.
	Errno sys.Errno
	// EveryN fires the rule on every Nth matching call (1 = always).
	EveryN int64
	// Remaining bounds the number of injections; negative means unlimited.
	Remaining int64

	// set is the FaultSet the rule was added to; its mutex guards calls
	// and fired, because Check updates them while Fired is a public
	// accessor harness code polls from other goroutines.
	set   *FaultSet
	calls int64
	fired int64
}

// Fired reports how many times the rule, as returned by FaultSet.Add, has
// injected a failure.
func (r *FaultRule) Fired() int64 {
	r.set.mu.Lock()
	defer r.set.mu.Unlock()
	return r.fired
}

// NewFaultSet returns an empty rule set.
func NewFaultSet() *FaultSet { return &FaultSet{} }

// Add installs a rule and returns it for later inspection.
func (fs *FaultSet) Add(rule FaultRule) *FaultRule {
	if rule.EveryN <= 0 {
		rule.EveryN = 1
	}
	if rule.Remaining == 0 {
		rule.Remaining = -1
	}
	rule.set = fs
	r := &rule
	fs.mu.Lock()
	fs.rules = append(fs.rules, r)
	fs.mu.Unlock()
	return r
}

// Clear removes every rule.
func (fs *FaultSet) Clear() {
	fs.mu.Lock()
	fs.rules = nil
	fs.mu.Unlock()
}

// Check consumes one call of syscall name and reports whether a rule fires.
func (fs *FaultSet) Check(name string) (sys.Errno, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, r := range fs.rules {
		if r.Syscall != "" && r.Syscall != name {
			continue
		}
		if r.Remaining == 0 {
			continue
		}
		r.calls++
		if r.calls%r.EveryN != 0 {
			continue
		}
		if r.Remaining > 0 {
			r.Remaining--
		}
		r.fired++
		return r.Errno, true
	}
	return sys.OK, false
}

// checkFault is the per-syscall injection hook.
func (p *Proc) checkFault(name string) (sys.Errno, bool) {
	return p.k.faults.Check(name)
}
