package iocov

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"iocov/internal/bugsim"
	"iocov/internal/coverage"
	"iocov/internal/harness"
	"iocov/internal/kernel"
	"iocov/internal/server"
	"iocov/internal/suites/crashmonkey"
	"iocov/internal/suites/xfstests"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

// TestPipelineEquivalence: live analysis, text-trace round trip, and
// binary-trace round trip must produce byte-identical coverage for the same
// suite run.
func TestPipelineEquivalence(t *testing.T) {
	live := coverage.NewAnalyzer(coverage.DefaultOptions())
	var text, bin bytes.Buffer
	tw := trace.NewWriter(&text)
	bw := trace.NewBinaryWriter(&bin)
	filter, err := trace.NewFilter(harness.MountPattern)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{
		Sink: &trace.FilteringSink{F: filter, Next: trace.MultiSink{live, tw, bw}},
	})
	if _, err := crashmonkey.Run(k, crashmonkey.Config{Scale: 0.05, Seed: 11, Noise: true}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	// The trace files contain pre-filtered events; re-filtering keeps all.
	fromText, _, _, err := AnalyzeTrace(&text, harness.MountPattern)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, _, _, err := AnalyzeTrace(&bin, harness.MountPattern)
	if err != nil {
		t.Fatal(err)
	}
	for _, an := range []*coverage.Analyzer{fromText, fromBin} {
		if an.Analyzed() != live.Analyzed() {
			t.Fatalf("offline analyzed %d, live %d", an.Analyzed(), live.Analyzed())
		}
	}
	// Snapshot-level equality across all three pipelines.
	want := live.Snapshot(0)
	for i, an := range []*coverage.Analyzer{fromText, fromBin} {
		got := an.Snapshot(0)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pipeline %d snapshot differs from live", i)
		}
	}
}

// TestSuiteCoversInjectedBugsButMissesThem is the paper's core claim run at
// suite scale: with every bug class injected, the full simulated xfstests
// run executes every buggy region, yet no bug fires — the suite's inputs
// simply never include the trigger partitions.
func TestSuiteCoversInjectedBugsButMissesThem(t *testing.T) {
	cfg := vfs.DefaultConfig()
	cfg.Bugs = vfs.BugSet{
		XattrSizeOverflow:   true,
		LargefileOpen:       true,
		NowaitWriteENOSPC:   true,
		TruncateExpandError: false, // xfstests uses block-aligned truncates legitimately
		GetBranchErrno:      true,
	}
	fs := vfs.New(cfg)
	regions := vfs.NewRegionSet()
	fs.AttachRegions(regions)
	k := kernel.New(fs, kernel.Options{})
	if _, err := xfstests.Run(k, xfstests.Config{Scale: 0.02, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, bug := range bugsim.Catalog {
		if bug.ID == "truncate-expand" {
			continue
		}
		if !regions.Covered(bug.Region) {
			t.Errorf("region %s not covered by the suite", bug.Region)
		}
	}
	if corruptions := fs.CheckConsistency(); len(corruptions) != 0 {
		t.Errorf("suite unexpectedly triggered injected bugs: %v", corruptions)
	}
}

// TestNowaitBugInvisibleToSuite: the NOWAIT bug makes O_NONBLOCK writes
// fail — but CrashMonkey never opens regular files with O_NONBLOCK (an
// untested flag partition), so its failure count is identical with and
// without the bug.
func TestNowaitBugInvisibleToSuite(t *testing.T) {
	run := func(bugs vfs.BugSet) int64 {
		cfg := vfs.DefaultConfig()
		cfg.Bugs = bugs
		k := kernel.New(vfs.New(cfg), kernel.Options{})
		stats, err := crashmonkey.Run(k, crashmonkey.Config{Scale: 0.1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Failures
	}
	clean := run(vfs.BugSet{})
	buggy := run(vfs.BugSet{NowaitWriteENOSPC: true})
	if clean != buggy {
		t.Errorf("failure counts differ (%d vs %d); the suite should be blind to this bug", clean, buggy)
	}
}

// TestUntestedPartitionsPredictBugTriggers ties the whole thesis together:
// the partitions IOCov reports as untested for the simulated xfstests are
// exactly where the injected bugs hide.
func TestUntestedPartitionsPredictBugTriggers(t *testing.T) {
	an, err := harness.Run(harness.SuiteXfstests, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Bug 1 (xattr overflow) triggers at setxattr size 2^16 — untested.
	xs := an.InputReport("setxattr", "size")
	for _, row := range xs.Rows {
		if row.Label == "2^16" && row.Count != 0 {
			t.Errorf("setxattr 2^16 partition tested (%d); the calibrated suite must miss it", row.Count)
		}
	}
	// Bug 2 (largefile) needs O_LARGEFILE / >2GiB opens — flag untested.
	if an.Input("open", "flags").Count("O_LARGEFILE") != 0 {
		t.Error("O_LARGEFILE tested; bug [62] class would be caught")
	}
	// Bug 3 (NOWAIT) needs O_NONBLOCK on an allocating write. The suite
	// uses O_NONBLOCK on opens but never writes through those descriptors
	// (they are O_RDONLY combos) — verify no write ENOSPC was recorded.
	if an.Output("write").Count("ENOSPC") != 0 {
		t.Error("write ENOSPC exercised; NOWAIT bug would surface")
	}
}

// TestRetiredV1TraceRejected pins the removal of binary format v1 at both
// entry points a recorded v1 trace can reach: the daemon's /ingest answers
// 400 and names v1 as retired, and offline analysis (iocov analyze, and
// iocov convert through the same decoder) fails with ErrMalformed.
func TestRetiredV1TraceRejected(t *testing.T) {
	var bin bytes.Buffer
	bw := trace.NewBinaryWriter(&bin)
	bw.Emit(trace.Event{Seq: 1, PID: 1, Name: "sync"})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte("IOCV\x01"), bin.Bytes()[len("IOCV\x02"):]...)

	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "version 1 is retired") {
		t.Errorf("/ingest of a v1 stream: status %d, body %q; want 400 naming v1 as retired", resp.StatusCode, body)
	}

	if _, _, _, err := AnalyzeTrace(bytes.NewReader(v1), `^/`); !errors.Is(err, trace.ErrMalformed) {
		t.Errorf("AnalyzeTrace of a v1 file: err = %v, want ErrMalformed", err)
	}
	// The unmodified v2 bytes still analyze.
	if _, _, _, err := AnalyzeTrace(bytes.NewReader(bin.Bytes()), `^/`); err != nil {
		t.Errorf("AnalyzeTrace of the v2 original: %v", err)
	}
}
