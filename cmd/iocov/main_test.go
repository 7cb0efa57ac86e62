package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected into a pipe and returns what
// it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	ferr := f()
	os.Stdout = stdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := <-printed
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

// TestUntestedTextAndBinaryTraces: `untested -trace` reads both trace
// formats, and one run written as a text trace and as a binary trace
// reports the same untested partitions as the run itself.
func TestUntestedTextAndBinaryTraces(t *testing.T) {
	run := []string{"-suite", "crashmonkey", "-scale", "0.01", "-seed", "3"}
	want := captureStdout(t, func() error { return cmdUntested(append(run, "-workers", "1")) })
	if want == "" {
		t.Fatal("untested -suite printed nothing")
	}
	dir := t.TempDir()
	for _, format := range []string{"text", "binary"} {
		path := filepath.Join(dir, "trace."+format)
		captureStdout(t, func() error {
			return cmdRun(append(run, "-trace", path, "-format", format))
		})
		got := captureStdout(t, func() error { return cmdUntested([]string{"-trace", path}) })
		if got != want {
			t.Errorf("untested -trace (%s trace) printed\n%s\nwant (untested -suite)\n%s", format, got, want)
		}
	}
}

// TestSuggestVerifyReportsEveryProbedSpace: suggest -verify prints covered
// before -> after for every probed space the suite exercises, not only open
// flags, and crashmonkey's open-flag gap closes completely, the invalid
// access mode included.
func TestSuggestVerifyReportsEveryProbedSpace(t *testing.T) {
	out := captureStdout(t, func() error { return cmdSuggest([]string{"-suite", "crashmonkey", "-verify"}) })
	for _, want := range []string{
		"# open.flags       covered 9 -> 21 of 21\n",
		"# open.mode        covered ",
		"# write.count      covered ",
		"# truncate.length  covered ",
		"# setxattr.size    covered ",
		"# lseek.whence     covered 3 -> 6 of 6\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("suggest -verify output lacks %q", want)
		}
	}
}
