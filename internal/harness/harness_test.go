package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"iocov/internal/coverage"
	"iocov/internal/trace"
)

func TestRunUnknownSuite(t *testing.T) {
	if _, err := Run("nonexistent", 0.01, 1); err == nil {
		t.Error("unknown suite accepted")
	}
}

func TestRunWithExtraSink(t *testing.T) {
	col := trace.NewCollector()
	an, err := Run(SuiteCrashMonkey, 0.02, 1, col)
	if err != nil {
		t.Fatal(err)
	}
	if an.Analyzed() == 0 {
		t.Fatal("nothing analyzed")
	}
	// The extra sink receives the same filtered stream, including events
	// outside the analyzer's syscall scope.
	if int64(col.Len()) != an.Analyzed()+an.Skipped() {
		t.Errorf("collector saw %d, analyzer %d+%d", col.Len(), an.Analyzed(), an.Skipped())
	}
}

// TestParallelMatchesSerial is the sharded pipeline's correctness spine:
// for both suites, at two scales, a parallel run with any worker count must
// produce a byte-identical Snapshot to the serial run.
func TestParallelMatchesSerial(t *testing.T) {
	for _, suite := range []string{SuiteXfstests, SuiteCrashMonkey} {
		for _, scale := range []float64{0.005, 0.02} {
			serial, err := RunWithOptions(suite, scale, 42, coverage.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := serial.Snapshot(0)
			var wantJSON bytes.Buffer
			if err := want.WriteJSON(&wantJSON); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/scale=%g/workers=%d", suite, scale, workers), func(t *testing.T) {
					par, err := RunParallel(suite, scale, 42, workers, coverage.DefaultOptions())
					if err != nil {
						t.Fatal(err)
					}
					got := par.Snapshot(0)
					if par.Analyzed() != serial.Analyzed() || par.Skipped() != serial.Skipped() {
						t.Errorf("event totals: parallel %d+%d, serial %d+%d",
							par.Analyzed(), par.Skipped(), serial.Analyzed(), serial.Skipped())
					}
					if !reflect.DeepEqual(got, want) {
						t.Error("parallel snapshot differs from serial")
					}
					var gotJSON bytes.Buffer
					if err := got.WriteJSON(&gotJSON); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
						t.Error("parallel snapshot JSON is not byte-identical to serial")
					}
				})
			}
		}
	}
}

func TestRunParallelUnknownSuite(t *testing.T) {
	if _, err := RunParallel("nonexistent", 0.01, 1, 2, coverage.DefaultOptions()); err == nil {
		t.Error("unknown suite accepted")
	}
}

func TestRunParallelDefaultWorkers(t *testing.T) {
	an, err := RunParallel(SuiteCrashMonkey, 0.02, 1, 0, coverage.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if an.Analyzed() == 0 {
		t.Error("nothing analyzed with default worker count")
	}
}

func TestRunBothParallel(t *testing.T) {
	xfs, cm, err := RunBothParallel(0.005, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if xfs.Analyzed() <= cm.Analyzed() {
		t.Errorf("xfstests %d <= crashmonkey %d events", xfs.Analyzed(), cm.Analyzed())
	}
}

func TestRunBoth(t *testing.T) {
	xfs, cm, err := RunBoth(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if xfs.Analyzed() <= cm.Analyzed() {
		t.Errorf("xfstests %d <= crashmonkey %d events", xfs.Analyzed(), cm.Analyzed())
	}
}

// TestMergeTreeOrderStable: counts merge additively, so no merge order can
// change a snapshot, but a capped combination set keeps whichever labels
// reach it first. Each crashmonkey shard here holds 5 to 7 of the run's 12
// distinct open flag combinations, so shard 0 leaves room under the cap of
// 8 that the other shards compete for. The tree's fixed pairing decides
// the winners, so every parallel run keeps the same combinations. Merging
// shards as they finish would not, but the finishing order of eight idle
// goroutines seldom changes, so the test takes 500 runs.
func TestMergeTreeOrderStable(t *testing.T) {
	opts := coverage.DefaultOptions()
	opts.TrackCombinations = true
	opts.CombinationCap = 8
	render := func() string {
		an, err := RunParallel(SuiteCrashMonkey, 0.002, 42, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer ReleaseAnalyzer(an)
		return fmt.Sprint(an.Combinations("open", "flags"))
	}
	want := render()
	for i := 1; i < 500; i++ {
		if got := render(); got != want {
			t.Fatalf("run %d keeps other combinations than the first:\n got %s\nwant %s", i, got, want)
		}
	}
}
