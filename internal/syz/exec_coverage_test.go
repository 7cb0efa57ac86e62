package syz

import (
	"strings"
	"testing"

	"iocov/internal/coverage"
	"iocov/internal/kernel"
	"iocov/internal/sys"
	"iocov/internal/vfs"
)

// allSyscallsProgram exercises every entry in the signature table exactly
// once, pinning the table and the executor to each other (a mismatch
// panics in executeCall).
const allSyscallsProgram = `
r0 = open(&(0x7f00)='/f\x00', 0x42, 0x1b6)
write(r0, &(0x7f00)="00", 0x40)
pwrite64(r0, &(0x7f00)="00", 0x10, 0x100)
lseek(r0, 0x0, 0x0)
read(r0, &(0x7f00), 0x20)
pread64(r0, &(0x7f00), 0x20, 0x0)
ftruncate(r0, 0x80)
fchmod(r0, 0x1a4)
fsetxattr(r0, &(0x7f00)='user.f\x00', &(0x7f00)="00", 0x8, 0x0)
fgetxattr(r0, &(0x7f00)='user.f\x00', &(0x7f00), 0x20)
close(r0)
r1 = openat(0xffffffffffffff9c, &(0x7f00)='/g\x00', 0x42, 0x1b6)
close(r1)
r2 = creat(&(0x7f00)='/h\x00', 0x1b6)
close(r2)
truncate(&(0x7f00)='/f\x00', 0x40)
mkdir(&(0x7f00)='/d\x00', 0x1ed)
mkdirat(0xffffffffffffff9c, &(0x7f00)='/d2\x00', 0x1ed)
chmod(&(0x7f00)='/f\x00', 0x180)
fchmodat(0xffffffffffffff9c, &(0x7f00)='/f\x00', 0x1a4, 0x0)
chdir(&(0x7f00)='/d\x00')
chdir(&(0x7f00)='/\x00')
r3 = open(&(0x7f00)='/d\x00', 0x10000, 0x0)
fchdir(r3)
close(r3)
chdir(&(0x7f00)='/\x00')
setxattr(&(0x7f00)='/f\x00', &(0x7f00)='user.a\x00', &(0x7f00)="00", 0x10, 0x0)
lsetxattr(&(0x7f00)='/f\x00', &(0x7f00)='user.b\x00', &(0x7f00)="00", 0x10, 0x0)
getxattr(&(0x7f00)='/f\x00', &(0x7f00)='user.a\x00', &(0x7f00), 0x40)
lgetxattr(&(0x7f00)='/f\x00', &(0x7f00)='user.b\x00', &(0x7f00), 0x40)
`

func TestExecuteEverySignature(t *testing.T) {
	progs, err := Parse(strings.NewReader(allSyscallsProgram))
	if err != nil {
		t.Fatal(err)
	}
	// Every signature-table syscall appears in the program.
	seen := map[string]bool{}
	for _, p := range progs {
		for _, c := range p.Calls {
			seen[c.Name] = true
		}
	}
	missing := 0
	for name := range signatures {
		if name == "readv" || name == "writev" {
			continue // vector calls have no syzlang form here
		}
		if !seen[name] {
			t.Errorf("signature %s not exercised by the pin program", name)
			missing++
		}
	}
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: an})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	res := Execute(p, progs)
	if res.Skipped != 0 {
		t.Errorf("skipped %d calls", res.Skipped)
	}
	if res.Failures != 0 {
		t.Errorf("%d calls failed", res.Failures)
	}
	// All 11 base syscalls got coverage.
	if got := len(an.Syscalls()); got != 11 {
		t.Errorf("observed %d base syscalls, want 11 (%v)", got, an.Syscalls())
	}
	// Filesystem side effects are real.
	if st, e := p.Stat("/f"); e != sys.OK || st.Size != 0x40 {
		t.Errorf("final /f = %+v, %v", st, e)
	}
	if st, e := p.Stat("/d2"); e != sys.OK || st.Type != vfs.TypeDir {
		t.Errorf("mkdirat result = %+v, %v", st, e)
	}
}

// TestConvertEverySignature pins static conversion the same way.
func TestConvertEverySignature(t *testing.T) {
	progs, err := Parse(strings.NewReader(allSyscallsProgram))
	if err != nil {
		t.Fatal(err)
	}
	events, skipped := Convert(progs)
	if skipped != 0 {
		t.Errorf("skipped %d", skipped)
	}
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	an.AddAll(events)
	if got := len(an.Syscalls()); got != 11 {
		t.Errorf("static conversion observed %d base syscalls (%v)", got, an.Syscalls())
	}
	// Arg keys land where the analyzer expects: spot-check several.
	if an.InputReport("truncate", "length").Count("2^6") != 1 {
		t.Errorf("truncate.length = %v", an.InputReport("truncate", "length").Rows)
	}
	if an.InputReport("chmod", "mode") == nil {
		t.Error("chmod.mode missing")
	}
	if an.InputReport("getxattr", "size").Count("2^6") != 2 {
		t.Errorf("getxattr.size = %v", an.InputReport("getxattr", "size").Rows)
	}
	if an.InputReport("read", "pos").Count("=0") != 1 {
		t.Errorf("pread pos = %v", an.InputReport("read", "pos").Rows)
	}
}
