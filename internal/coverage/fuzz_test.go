package coverage

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/trace"
)

// FuzzSnapshotRestore fuzzes checkpoint restore, the one snapshot input the
// ingest daemon reads from disk at startup: LoadSnapshot on arbitrary bytes,
// Restore into a fresh analyzer, Merge a live analyzer into it, Snapshot.
// Nothing may panic, and whenever Restore accepts the input the result must
// encode to the bytes of the label-keyed reference,
// MergeSnapshots(restored.Snapshot(0), live.Snapshot(0)).
func FuzzSnapshotRestore(f *testing.F) {
	an := seedAnalyzer()
	live := an.Snapshot(0)
	for _, seed := range snapshotFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		restored := NewAnalyzer(DefaultOptions())
		restoreErr := restored.Restore(snap)
		var want []byte
		if restoreErr == nil {
			want = snapshotBytes(t, MergeSnapshots(restored.Snapshot(0), live))
		}
		if err := restored.Merge(an); err != nil {
			t.Fatalf("Merge: %v", err)
		}
		got := snapshotBytes(t, restored.Snapshot(0))
		if restoreErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("restore+merge differs from MergeSnapshots\n got: %s\nwant: %s", got, want)
		}
	})
}

// seedAnalyzer has seen an event of each kind a snapshot records: opens
// that count flag combinations, a write with an undocumented errno (an
// Extra section), an lseek with out-of-domain arguments and an unknown
// syscall.
func seedAnalyzer() *Analyzer {
	an := NewAnalyzer(DefaultOptions())
	an.Add(openEvent(int64(sys.O_WRONLY|sys.O_CREAT|sys.O_SYNC), 0o644, 3, sys.OK))
	an.Add(openEvent(0, 0, -int64(sys.ENOENT), sys.ENOENT))
	an.Add(writeEvent(4096, 4096, sys.OK))
	an.Add(writeEvent(8, -int64(sys.EACCES), sys.EACCES)) // undocumented: Extra
	an.Add(withArgs(trace.Event{Name: "lseek", PID: 1,
		Ret: -int64(sys.EINVAL), Err: sys.EINVAL}, nil, numArgs{{"fd", 3}, {"offset", -1}, {"whence", 9}}))
	an.Add(trace.Event{Name: "bogus_syscall", PID: 1})
	return an
}

// snapshotFuzzSeeds are the snapshot fuzz targets' seed inputs:
// seedAnalyzer's snapshot, degenerate documents, one snapshot breaking
// several Restore rules at once, every corrupt checkpoint, and the inputs
// saved in FuzzSnapshotRestore's corpus.
func snapshotFuzzSeeds(tb testing.TB) [][]byte {
	var live bytes.Buffer
	if err := seedAnalyzer().Snapshot(0).WriteJSON(&live); err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{live.Bytes(), []byte(`{}`), []byte(`null`),
		[]byte(`{"analyzed":1,"inputs":[{"syscall":"open","arg":"flags","domain":2,"covered":1,"counts":{"O_RDONLY":1},"untested":["O_RDONLY","O_RDONLY"]},{"syscall":"open","arg":"flags","domain":-3}],"outputs":[{"syscall":"zz"},{"syscall":"open","extra":{"E":9223372036854775807}}],"open_combos":{"all":{"-1":1},"rdonly":null}}`)}
	for _, body := range corruptCheckpoints {
		seeds = append(seeds, []byte(body))
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSnapshotRestore", "*"))
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		// A corpus file is a header line and one []byte("...") line.
		_, arg, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		quoted, ok := strings.CutPrefix(arg, "[]byte(")
		body, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if !ok || err != nil {
			tb.Fatalf("%s: not a one-[]byte corpus entry", name)
		}
		seeds = append(seeds, []byte(body))
	}
	return seeds
}
