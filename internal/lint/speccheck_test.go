package lint

import (
	"strings"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/sysspec"
)

// TestSpecCheckTablesClean validates the live standard and extended tables'
// internal consistency directly.
func TestSpecCheckTablesClean(t *testing.T) {
	for _, f := range NewSpecCheck().checkTables() {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestSpecCheckBadFixture runs the dispatch check against a mimic kernel
// with three violations: a bogus literal name, a bogus name reaching emit
// through a forwarding helper, and a real syscall whose argument pairs drop
// a tracked key.
func TestSpecCheckBadFixture(t *testing.T) {
	sc := &SpecCheck{KernelPaths: []string{"speccheck_bad"}}
	findings := sc.Run(fixtureTarget(t, "speccheck_bad"))
	if len(findings) != 3 {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want 3", len(findings))
	}

	bogus := requireFinding(t, findings, `kernel dispatch emits "bogus_syscall"`)
	if wantLine := fixtureLine(t, "speccheck_bad/bad.go", `"bogus_syscall"`); bogus.Pos.Line != wantLine {
		t.Errorf("bogus_syscall finding at line %d, want %d", bogus.Pos.Line, wantLine)
	}

	// The forwarded name must be flagged at the *call site* that supplied the
	// constant, not at the forwarding helper's emit.
	fwd := requireFinding(t, findings, `kernel dispatch emits "not_a_syscall"`)
	if wantLine := fixtureLine(t, "speccheck_bad/bad.go", `p.forward("not_a_syscall"`); fwd.Pos.Line != wantLine {
		t.Errorf("not_a_syscall finding at line %d, want %d", fwd.Pos.Line, wantLine)
	}

	missing := requireFinding(t, findings, `emit site for "read" omits tracked argument key "count"`)
	if !strings.HasSuffix(missing.Pos.Filename, "bad.go") {
		t.Errorf("missing-key finding filename = %q", missing.Pos.Filename)
	}
}

// TestSpecCheckGoodFixture is the clean mimic: resolvable names and complete
// literal key sets, both direct and forwarded.
func TestSpecCheckGoodFixture(t *testing.T) {
	sc := &SpecCheck{KernelPaths: []string{"speccheck_good"}}
	for _, f := range sc.Run(fixtureTarget(t, "speccheck_good")) {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestSpecCheckErrnoInvariants exercises the table-side errno checks on
// synthetic bad specs (the live tables are clean, so the invariants need
// constructed violations).
func TestSpecCheckErrnoInvariants(t *testing.T) {
	sc := NewSpecCheck()
	bad := &sysspec.Spec{
		Base:     "fake",
		Variants: []string{"fake"},
		Errnos:   []sys.Errno{sys.EIO, sys.EACCES, sys.EIO, sys.OK},
	}
	findings := sc.checkErrnos("test", bad)
	for _, want := range []string{
		"errno universe out of order: EACCES after EIO",
		"errno universe repeats EIO",
		"errno universe contains the OK sentinel",
	} {
		requireFinding(t, findings, want)
	}
}

// TestSpecCheckArgInvariants exercises the table-side argument checks on a
// synthetic spec with an unknown scheme and a bogus variant restriction.
func TestSpecCheckArgInvariants(t *testing.T) {
	sc := NewSpecCheck()
	bad := &sysspec.Spec{
		Base:     "fake",
		Variants: []string{"fake"},
		Args: []sysspec.ArgSpec{
			{Name: "x", Key: "x", Class: sysspec.Numeric, Scheme: "no-such-scheme"},
			{Name: "y", Key: "y", Class: sysspec.Numeric, Scheme: "bytes", Variants: []string{"not_a_variant"}},
		},
	}
	findings := sc.checkArgs("test", bad)
	requireFinding(t, findings, `names unknown scheme "no-such-scheme"`)
	requireFinding(t, findings, `restricted to variant "not_a_variant"`)
}
