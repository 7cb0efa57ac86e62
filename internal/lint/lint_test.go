package lint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	repoOnce sync.Once
	repoTgt  *Target
	repoErr  error
)

// repoTarget loads the repository once per test binary; LoadRepo type-checks
// every package, which dominates the suite's runtime.
func repoTarget(t *testing.T) *Target {
	t.Helper()
	repoOnce.Do(func() {
		repoTgt, repoErr = LoadRepo(filepath.Join("..", ".."))
	})
	if repoErr != nil {
		t.Fatalf("LoadRepo: %v", repoErr)
	}
	return repoTgt
}

// fixtureTarget loads one testdata package as a standalone target.
func fixtureTarget(t *testing.T, name string) *Target {
	t.Helper()
	tgt, err := LoadPackages(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("LoadPackages(%s): %v", name, err)
	}
	return tgt
}

// fixtureLine returns the 1-based line of the first occurrence of substr in
// the fixture file, so position assertions survive fixture edits.
func fixtureLine(t *testing.T, relpath, substr string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", relpath))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, substr) {
			return i + 1
		}
	}
	t.Fatalf("fixture %s does not contain %q", relpath, substr)
	return 0
}

// requireFinding asserts one finding's message contains substr and returns it.
func requireFinding(t *testing.T, findings []Finding, substr string) Finding {
	t.Helper()
	for _, f := range findings {
		if strings.Contains(f.Message, substr) {
			return f
		}
	}
	var msgs []string
	for _, f := range findings {
		msgs = append(msgs, f.String())
	}
	t.Fatalf("no finding contains %q; have:\n%s", substr, strings.Join(msgs, "\n"))
	return Finding{}
}

// TestRepoSelfCheck is the suite's own acceptance gate: the full pass list
// over the live repository must come back clean.
func TestRepoSelfCheck(t *testing.T) {
	findings := RunAll(repoTarget(t), AllPasses())
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

func TestSelectPasses(t *testing.T) {
	all, err := SelectPasses("")
	if err != nil || len(all) != 7 {
		t.Fatalf("SelectPasses(\"\") = %d passes, err %v; want 7, nil", len(all), err)
	}
	if last := all[len(all)-1].Name(); last != "determcheck" {
		t.Fatalf("last pass = %s, want determcheck", last)
	}
	two, err := SelectPasses("lockcheck, errcheck")
	if err != nil || len(two) != 2 || two[0].Name() != "lockcheck" || two[1].Name() != "errcheck" {
		t.Fatalf("SelectPasses(lockcheck, errcheck) = %v, err %v", two, err)
	}
	err = func() error { _, err := SelectPasses("nosuchpass"); return err }()
	if err == nil {
		t.Fatal("SelectPasses(nosuchpass) did not fail")
	}
	// The error must name the offender and enumerate every valid pass, so a
	// CLI typo is self-correcting.
	if !strings.Contains(err.Error(), `unknown pass "nosuchpass"`) {
		t.Errorf("error does not name the unknown pass: %v", err)
	}
	for _, name := range PassNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list valid pass %s: %v", name, err)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Pass: "demo", Message: "broken"}
	if got := f.String(); got != "[demo] broken" {
		t.Errorf("positionless finding = %q", got)
	}
	f.Pos.Filename = "x.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got := f.String(); got != "x.go:3:7: [demo] broken" {
		t.Errorf("positioned finding = %q", got)
	}
}
