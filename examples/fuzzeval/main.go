// Fuzzer evaluation (§6): generate a syzkaller-style corpus, show the two
// IOCov ingestion paths — static parsing of the program log (input
// coverage only) and execution against the simulated kernel (input +
// output coverage) — and compare what each reveals.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"iocov/internal/coverage"
	"iocov/internal/kernel"
	"iocov/internal/sys"
	"iocov/internal/syz"
	"iocov/internal/vfs"
)

func main() {
	programs := flag.Int("programs", 400, "corpus size")
	seed := flag.Int64("seed", 7, "corpus seed")
	flag.Parse()

	corpus := syz.Generate(syz.GenConfig{Programs: *programs, Seed: *seed})
	fmt.Printf("generated a %d-program corpus; first program:\n\n%s\n",
		len(corpus), indent(corpus[0].Format()))

	// Path A: parse-only, as IOCov would consume a Syzkaller log.
	text := corpusText(corpus)
	parsed, err := syz.Parse(strings.NewReader(text))
	if err != nil {
		log.Fatal(err)
	}
	events, skipped := syz.Convert(parsed)
	static := coverage.NewAnalyzer(coverage.DefaultOptions())
	static.AddAll(events)
	fmt.Printf("static path: %d events converted (%d out-of-scope calls skipped)\n",
		len(events), skipped)
	fmt.Printf("  open flags covered: %d/%d, write sizes: %d/%d\n",
		static.InputReport("open", "flags").Covered(), static.InputReport("open", "flags").DomainSize(),
		static.InputReport("write", "count").Covered(), static.InputReport("write", "count").DomainSize())
	fmt.Printf("  open output partitions seen: %d (returns unknown from a log alone)\n\n",
		static.OutputReport("open").Covered())

	// Path B: execute the corpus for full input+output coverage.
	exec := coverage.NewAnalyzer(coverage.DefaultOptions())
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: exec})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	if e := p.Mkdir("/fuzz", 0o777); e != sys.OK {
		log.Fatal(e)
	}
	res := syz.Execute(p, parsed)
	fmt.Printf("executed path: %d calls executed, %d failed\n", res.Executed, res.Failures)
	out := exec.OutputReport("open")
	fmt.Printf("  open output partitions covered: %d/%d\n", out.Covered(), out.DomainSize())
	fmt.Printf("  errnos the fuzzer triggered: ")
	for _, row := range out.Rows {
		if row.Count > 0 && row.Label != "OK" {
			fmt.Printf("%s ", row.Label)
		}
	}
	fmt.Println()
	flags := exec.InputReport("open", "flags")
	fmt.Printf("  untested flags the fuzzer did reach (vs. the suites): O_NOATIME=%d O_PATH=%d O_NOCTTY=%d\n",
		flags.Count("O_NOATIME"), flags.Count("O_PATH"), flags.Count("O_NOCTTY"))
}

func corpusText(progs []syz.Program) string {
	var b strings.Builder
	for _, p := range progs {
		b.WriteString(p.Format())
		b.WriteByte('\n')
	}
	return b.String()
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
