// Quickstart: trace a small hand-written workload through the IOCov
// pipeline and print its input and output coverage.
//
// It demonstrates the full loop in ~60 lines: build a live pipeline
// (simulated filesystem + kernel + mount filter + analyzer), issue syscalls
// the way a test suite would, then read coverage reports off the analyzer.
package main

import (
	"fmt"
	"log"

	"iocov"
	"iocov/internal/kernel"
	"iocov/internal/sys"
	"iocov/internal/vfs"
)

func main() {
	// Everything under /mnt/test is analyzed; everything else is filtered
	// out, exactly like IOCov's LTTng trace filter.
	pipe, err := iocov.NewPipeline(`^/mnt/test(/|$)`, nil)
	if err != nil {
		log.Fatal(err)
	}
	p := pipe.Kernel.NewProc(kernel.ProcOptions{Cred: vfs.Root})

	// A miniature test suite.
	check(p.Mkdir("/mnt", 0o755))
	check(p.Mkdir("/mnt/test", 0o755))
	fd, e := p.Open("/mnt/test/a", sys.O_CREAT|sys.O_RDWR|sys.O_TRUNC, 0o644)
	check(e)
	for _, size := range []int{0, 1, 512, 4096, 100_000} {
		_, e := p.Write(fd, make([]byte, size))
		check(e)
	}
	_, e = p.Lseek(fd, 0, sys.SEEK_SET)
	check(e)
	_, e = p.Read(fd, make([]byte, 4096))
	check(e)
	check(p.Setxattr("/mnt/test/a", "user.demo", []byte("value"), 0))
	check(p.Close(fd))
	// Failure paths count too: output coverage tracks errnos.
	if _, e := p.Open("/mnt/test/missing", sys.O_RDONLY, 0); e != sys.ENOENT {
		log.Fatalf("expected ENOENT, got %v", e)
	}
	// This one happens outside the mount and is filtered out.
	check(p.Mkdir("/elsewhere", 0o755))

	an := pipe.Analyzer
	fmt.Printf("analyzed %d syscalls (out-of-scope: %d)\n\n", an.Analyzed(), an.Skipped())

	flags := an.InputReport("open", "flags")
	fmt.Printf("open flags: %d/%d partitions covered\n", flags.Covered(), flags.DomainSize())
	fmt.Printf("  untested flags: %v\n\n", flags.Untested())

	sizes := an.InputReport("write", "count").TrimZeroTail(4)
	fmt.Println("write sizes (powers-of-two partitions):")
	for _, row := range sizes.Rows {
		fmt.Printf("  %-6s %d\n", row.Label, row.Count)
	}

	out := an.OutputReport("open")
	fmt.Printf("\nopen outputs: %d/%d partitions covered (OK=%d, ENOENT=%d)\n",
		out.Covered(), out.DomainSize(),
		out.Count("OK"), out.Count("ENOENT"))
	fmt.Printf("TCD against a target of 10 tests per open flag: %.3f\n",
		iocov.TCD(flags, 10))
}

func check(e sys.Errno) {
	if e != sys.OK {
		log.Fatal(e)
	}
}
