// Package speccheck_bad mimics the kernel dispatch with three spec
// violations: a directly emitted syscall name no table resolves, a name
// reaching emit through a forwarding helper (the openCommon pattern), and a
// real syscall whose emit site omits a tracked argument key.
package speccheck_bad

type errno int

type proc struct{}

// emit mirrors the kernel's signature: name, path, strings, args, ret, err.
func (p *proc) emit(name, path string, strs []eskv, args []ekv, ret int64, err errno) {
}

// doBogus emits a literal name outside every sysspec table.
func (p *proc) doBogus() {
	p.emit("bogus_syscall", "", nil, []ekv{{"fd", 3}}, 0, 0)
}

// forward is the openCommon pattern: the emitted name arrives as a
// parameter, so speccheck must propagate constants from call sites.
func (p *proc) forward(name string, fd int) (int, errno) {
	p.emit(name, "", nil, []ekv{{"fd", int64(fd)}}, 0, 0)
	return fd, 0
}

func (p *proc) caller() {
	p.forward("not_a_syscall", 3)
}

// badRead emits a real syscall but drops the tracked "count" key from its
// argument pairs.
func (p *proc) badRead(fd int) {
	p.emit("read", "", nil, []ekv{{"fd", int64(fd)}}, 0, 0)
}

// ekv and eskv mirror the kernel's emit-site argument pairs.
type ekv struct {
	name string
	val  int64
}

type eskv struct {
	name, val string
}
