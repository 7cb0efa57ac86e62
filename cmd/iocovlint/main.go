// Command iocovlint runs iocov's static-analysis suite over the repository
// itself, proving the invariants the coverage pipeline depends on:
//
//	iocovlint [-root DIR] [-json] [-v]
//
// It runs every pass (see internal/lint):
//
//	speccheck    sysspec tables vs kernel dispatch
//	shardcheck   no package-level writes in worker paths or the iocovd daemon
//	errcheck     silently dropped error returns in internal/ and cmd/
//
// -json emits one JSON object per finding ({"pass","file","line","col",
// "message"}) on stdout followed by a {"timings":[{"pass","ms"},...]}
// trailer with each pass's wall-clock analysis time, for tooling. -v
// reports load statistics and the same per-pass times on stderr, so CI
// logs track engine cost.
//
// The exit status is 0 with no findings, 1 with findings, 2 on usage or
// load errors — so `make lint` and CI can gate on it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"iocov/internal/lint"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable body of main: it parses args, runs every pass,
// writes findings to stdout and diagnostics to stderr, and returns the
// process exit code (0 no findings, 1 findings, 2 usage or load error).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iocovlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "module root to analyze (default: nearest go.mod at or above the working directory)")
	asJSON := fs.Bool("json", false, "emit one JSON object per finding on stdout")
	verbose := fs.Bool("v", false, "report load statistics and per-pass analysis times")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "iocovlint:", err)
			return 2
		}
	}
	target, err := lint.LoadRepo(dir)
	if err != nil {
		fmt.Fprintln(stderr, "iocovlint:", err)
		return 2
	}
	if *verbose {
		fmt.Fprintf(stderr, "iocovlint: %d packages loaded from %s\n", len(target.Pkgs), dir)
	}
	findings, times := lint.RunAllTimed(target, lint.AllPasses())
	if *verbose {
		for _, pt := range times {
			fmt.Fprintf(stderr, "iocovlint: %-12s %8.1fms\n",
				pt.Name, float64(pt.Elapsed.Microseconds())/1000)
		}
	}
	if *asJSON {
		if err := lint.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "iocovlint:", err)
			return 2
		}
		if err := lint.WriteJSONTimings(stdout, times); err != nil {
			fmt.Fprintln(stderr, "iocovlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "iocovlint: %d finding(s)\n", len(findings))
		return 1
	}
	if *verbose {
		fmt.Fprintln(stderr, "iocovlint: no findings")
	}
	return 0
}

// findModuleRoot walks upward from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found at or above the working directory")
		}
		dir = parent
	}
}
