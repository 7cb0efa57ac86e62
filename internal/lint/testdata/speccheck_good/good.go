// Package speccheck_good mimics a clean kernel dispatch: every emitted name
// resolves in the sysspec tables and every literal argument slice carries the
// tracked keys, both directly and through a forwarding helper.
package speccheck_good

type errno int

type proc struct{}

func (p *proc) emit(name, path string, strs []eskv, args []ekv, ret int64, err errno) {
}

func (p *proc) read(fd int, count int) {
	p.emit("read", "", nil, []ekv{{"fd", int64(fd)}, {"count", int64(count)}}, 0, 0)
}

func (p *proc) forward(name string, count int64, pos int64) {
	p.emit(name, "", nil, []ekv{{"fd", 3}, {"count", count}, {"pos", pos}}, 0, 0)
}

func (p *proc) pread64(count, pos int64) {
	p.forward("pread64", count, pos)
}

// ekv and eskv mirror the kernel's emit-site argument pairs.
type ekv struct {
	name string
	val  int64
}

type eskv struct {
	name, val string
}
