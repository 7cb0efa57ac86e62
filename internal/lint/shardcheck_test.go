package lint

import (
	"strings"
	"testing"
)

// TestShardCheckBadFixture covers every violation the pass detects:
// package-level writes (a counter increment, a map store, a lazy
// initialization) and a reasonless iocov:shared-ok directive, whose
// variable's writes stay flagged.
func TestShardCheckBadFixture(t *testing.T) {
	sc := &ShardCheck{Paths: []string{"shardcheck_bad"}}
	findings := sc.Run(fixtureTarget(t, "shardcheck_bad"))
	if len(findings) != 5 {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want 5", len(findings))
	}
	counter := requireFinding(t, findings, `writes package-level variable "counter"`)
	if wantLine := fixtureLine(t, "shardcheck_bad/bad.go", "counter++"); counter.Pos.Line != wantLine {
		t.Errorf("counter finding at line %d, want %d", counter.Pos.Line, wantLine)
	}
	requireFinding(t, findings, `writes package-level variable "cache"`)
	requireFinding(t, findings, `writes package-level variable "lazily"`)
	requireFinding(t, findings, "iocov:shared-ok requires a reason")
	for _, f := range findings {
		if !strings.HasSuffix(f.Pos.Filename, "bad.go") {
			t.Errorf("finding without fixture position: %s", f)
		}
	}
}

// TestShardCheckGoodFixture: read-only package state and a reasoned
// iocov:shared-ok variable must not be flagged.
func TestShardCheckGoodFixture(t *testing.T) {
	sc := &ShardCheck{Paths: []string{"shardcheck_good"}}
	for _, f := range sc.Run(fixtureTarget(t, "shardcheck_good")) {
		t.Errorf("unexpected finding: %s", f)
	}
}
