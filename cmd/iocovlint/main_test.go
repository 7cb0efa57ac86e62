package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestExitCodes pins the CLI contract CI gates on: 0 with no findings, 1
// with findings, 2 on usage or load errors.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean module", []string{"-root", "testdata/cleanmod"}, 0},
		{"findings", []string{"-root", "testdata/badmod"}, 1},
		{"unknown pass", []string{"-root", "testdata/cleanmod", "-pass", "nosuchpass"}, 2},
		{"pass and passes", []string{"-root", "testdata/cleanmod", "-pass", "errcheck", "-passes", "lockcheck"}, 2},
		{"bad root", []string{"-root", "testdata/nosuchdir"}, 2},
		{"bad flag", []string{"-nosuchflag"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := realMain(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					got, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestFindingOutput checks the dirty module's finding reaches stdout in both
// text and JSON form, attributed to the right pass.
func TestFindingOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := realMain([]string{"-root", "testdata/badmod"}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[errcheck]") {
		t.Errorf("text output missing errcheck finding:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if got := realMain([]string{"-root", "testdata/badmod", "-json"}, &stdout, &stderr); got != 1 {
		t.Fatalf("json exit = %d, want 1\nstderr:\n%s", got, stderr.String())
	}
	var jf struct {
		Pass    string `json:"pass"`
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Message string `json:"message"`
	}
	line := strings.SplitN(stdout.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(line), &jf); err != nil {
		t.Fatalf("json output not decodable: %v\n%s", err, stdout.String())
	}
	if jf.Pass != "errcheck" || jf.Line == 0 || !strings.Contains(jf.File, "badmod") {
		t.Errorf("json finding = %+v", jf)
	}

	// The stream ends with a per-pass timing trailer covering every pass
	// that ran.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var tr struct {
		Timings []struct {
			Pass string  `json:"pass"`
			Ms   float64 `json:"ms"`
		} `json:"timings"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &tr); err != nil {
		t.Fatalf("timing trailer not decodable: %v\n%s", err, last)
	}
	if len(tr.Timings) != 7 {
		t.Errorf("trailer has %d timings, want one per pass (7):\n%s", len(tr.Timings), last)
	}
	for _, pt := range tr.Timings {
		if pt.Pass == "" {
			t.Errorf("timing entry missing pass name: %s", last)
		}
	}
}
