package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"iocov/internal/coverage"
)

var updateGolden = flag.Bool("update", false, "rewrite the snapshot golden files under testdata")

// TestSnapshotGolden pins the bytes of `iocov run -json` for both suites at
// scale 0.02, seed 1: Snapshot(0).WriteJSON of harness.Run must equal the
// golden file, and so must the render of an analyzer restored from it, as
// from a checkpoint. A change that moves a snapshot's bytes on purpose
// regenerates the files with -update and says so.
func TestSnapshotGolden(t *testing.T) {
	for _, suite := range []string{SuiteXfstests, SuiteCrashMonkey} {
		t.Run(suite, func(t *testing.T) {
			an, err := Run(suite, 0.02, 1)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := an.Snapshot(0).WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "snapshot-"+suite+"-0.02-seed1.json")
			if *updateGolden {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("snapshot differs from %s\n got: %s\nwant: %s", path, got.Bytes(), want)
			}

			ckpt, err := coverage.LoadSnapshot(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			restored := coverage.NewAnalyzer(coverage.DefaultOptions())
			if err := restored.Restore(ckpt); err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := restored.Snapshot(0).WriteJSON(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), want) {
				t.Fatalf("restored from %s, the render differs\n got: %s\nwant: %s", path, again.Bytes(), want)
			}
		})
	}
}
