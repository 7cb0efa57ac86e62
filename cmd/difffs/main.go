// Command difffs runs the coverage-guided differential file-system tester
// (the paper's §6 future-work direction, built here on IOCov): generated
// syscall workloads run in lockstep against the simulated kernel and an
// independent reference model; divergences are candidate bugs. Coverage
// guidance steers generation toward untested input partitions.
//
// Inject a bug class with -bug to watch the tester find it:
//
//	difffs -bug xattr-overflow -ops 20000 -guide 25
//
// The exit status is 0 when the run met its expectation: no mismatch on a
// clean filesystem, at least one with -bug. Otherwise it is 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"iocov/internal/bugsim"
	"iocov/internal/difftest"
	"iocov/internal/vfs"
)

func main() {
	ops := flag.Int("ops", 20000, "operations to generate")
	seed := flag.Int64("seed", 1, "generator seed")
	guide := flag.Int("guide", 25, "coverage guidance interval (0 = off)")
	bug := flag.String("bug", "", "inject a bug class: "+catalogIDs())
	maxShow := flag.Int("show", 10, "mismatches to print")
	flag.Parse()

	cfg := difftest.Config{Ops: *ops, Seed: *seed, GuideEvery: *guide}
	cfg.FS = vfs.DefaultConfig()
	if *bug != "" {
		entry := bugsim.ByID(*bug)
		if entry == nil {
			fmt.Fprintf(os.Stderr, "difffs: unknown bug %q (known: %s)\n", *bug, catalogIDs())
			os.Exit(2)
		}
		switch *bug {
		case "xattr-overflow":
			cfg.FS.Bugs.XattrSizeOverflow = true
		case "largefile-open":
			cfg.FS.Bugs.LargefileOpen = true
		case "nowait-write-enospc":
			cfg.FS.Bugs.NowaitWriteENOSPC = true
		case "truncate-expand":
			cfg.FS.Bugs.TruncateExpandError = true
		case "get-branch-errno":
			cfg.FS.Bugs.GetBranchErrno = true
		}
		fmt.Printf("injected bug: %s — %s\n", entry.ID, entry.Description)
	}

	res := difftest.Run(cfg)
	fmt.Printf("ran %d ops (%d coverage-guided); %d mismatches\n",
		res.Ops, res.Guided, len(res.Mismatches))
	for i, m := range res.Mismatches {
		if i >= *maxShow {
			fmt.Printf("  ... (%d more)\n", len(res.Mismatches)-*maxShow)
			break
		}
		fmt.Printf("  %s\n", m)
	}
	if flags := res.Analyzer.InputReport("open", "flags"); flags != nil {
		fmt.Printf("generator input coverage: %d/%d open flags, %d/%d write-size buckets\n",
			flags.Covered(), flags.DomainSize(),
			res.Analyzer.InputReport("write", "count").Covered(),
			res.Analyzer.InputReport("write", "count").DomainSize())
	}
	switch {
	case *bug != "" && len(res.Mismatches) == 0:
		fmt.Println("injected bug NOT found — increase -ops or enable -guide")
		os.Exit(1)
	case *bug == "" && len(res.Mismatches) > 0:
		// With no bug injected, every mismatch is a defect in the kernel
		// or in the model.
		os.Exit(1)
	}
}

func catalogIDs() string {
	ids := make([]string, len(bugsim.Catalog))
	for i, b := range bugsim.Catalog {
		ids[i] = b.ID
	}
	return strings.Join(ids, ", ")
}
