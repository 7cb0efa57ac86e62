package lint

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the json_golden files from current pass output")

// TestJSONGolden pins the -json output schema for every pass: each pass runs
// over its _bad fixture and the newline-delimited JSON must match the golden
// file byte for byte. A schema change (renamed key, reordered fields, new
// sort order) shows up as a diff here before it breaks downstream tooling.
// Regenerate with: go test ./internal/lint -run TestJSONGolden -update
func TestJSONGolden(t *testing.T) {
	// The path-scoped passes are configured for the repo's import paths by
	// their constructors; point them at the fixture packages instead, the
	// way their own fixture tests do.
	passes := []Pass{
		&SpecCheck{KernelPaths: []string{"speccheck_bad"}},
		&ShardCheck{Paths: []string{"shardcheck_bad"}},
		&ErrCheck{Paths: []string{"errcheck_bad"}},
		NewLockCheck(),
		NewAllocCheck(),
		NewLeakCheck(),
		NewDetermCheck(),
	}
	// The golden suite must cover exactly the canonical pass list, in order,
	// so a new pass cannot ship without a schema golden.
	all := AllPasses()
	if len(passes) != len(all) {
		t.Fatalf("golden suite has %d passes, AllPasses has %d", len(passes), len(all))
	}
	for i := range passes {
		if passes[i].Name() != all[i].Name() {
			t.Fatalf("golden pass %d = %s, AllPasses = %s", i, passes[i].Name(), all[i].Name())
		}
	}
	for _, p := range passes {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			tgt := fixtureTarget(t, p.Name()+"_bad")
			findings := RunAll(tgt, []Pass{p})
			if len(findings) == 0 {
				t.Fatalf("%s produced no findings on its bad fixture", p.Name())
			}
			var buf bytes.Buffer
			if err := WriteJSON(&buf, findings); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			golden := filepath.Join("testdata", "json_golden", p.Name()+".json")
			if *updateGolden {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("JSON output diverged from %s:\n got:\n%s\nwant:\n%s",
					golden, buf.String(), want)
			}
			// Every line must decode into the documented schema with the
			// pass attributed and a real position.
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				var jf JSONFinding
				if err := json.Unmarshal([]byte(line), &jf); err != nil {
					t.Fatalf("line not valid JSON: %v\n%s", err, line)
				}
				if jf.Pass != p.Name() {
					t.Errorf("finding attributed to %q, want %q", jf.Pass, p.Name())
				}
				if jf.File == "" || jf.Line == 0 {
					t.Errorf("finding missing position: %s", line)
				}
				if jf.Message == "" {
					t.Errorf("finding missing message: %s", line)
				}
			}
		})
	}
}
