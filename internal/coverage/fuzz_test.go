package coverage

import (
	"bytes"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/trace"
)

// FuzzSnapshotRestore fuzzes checkpoint restore, the one snapshot input the
// ingest daemon reads from disk at startup: LoadSnapshot on arbitrary bytes,
// then MergeSnapshots of the loaded snapshot with a real one in both orders
// and with itself. Nothing may panic, and every merge result must encode
// with WriteJSON and load back with the event totals intact.
func FuzzSnapshotRestore(f *testing.F) {
	an := NewAnalyzer(DefaultOptions())
	an.Add(openEvent(int64(sys.O_WRONLY|sys.O_CREAT|sys.O_SYNC), 0o644, 3, sys.OK))
	an.Add(openEvent(0, 0, -int64(sys.ENOENT), sys.ENOENT))
	an.Add(writeEvent(4096, 4096, sys.OK))
	an.Add(writeEvent(8, -int64(sys.EACCES), sys.EACCES)) // undocumented: Extra
	an.Add(trace.Event{Name: "lseek", PID: 1,
		Args: map[string]int64{"fd": 3, "offset": -1, "whence": 9}, Ret: -int64(sys.EINVAL), Err: sys.EINVAL})
	an.Add(trace.Event{Name: "bogus_syscall", PID: 1})
	live := an.Snapshot(0)
	var seed bytes.Buffer
	if err := live.WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"analyzed":1,"inputs":[{"syscall":"open","arg":"flags","domain":2,"covered":1,"counts":{"O_RDONLY":1},"untested":["O_RDONLY","O_RDONLY"]},{"syscall":"open","arg":"flags","domain":-3}],"outputs":[{"syscall":"zz"},{"syscall":"open","extra":{"E":9223372036854775807}}],"open_combos":{"all":{"-1":1},"rdonly":null}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, pair := range [][2]*Snapshot{{restored, live}, {live, restored}, {restored, restored}} {
			merged := MergeSnapshots(pair[0], pair[1])
			var buf bytes.Buffer
			if err := merged.WriteJSON(&buf); err != nil {
				t.Fatalf("WriteJSON of a merge: %v", err)
			}
			back, err := LoadSnapshot(&buf)
			if err != nil {
				t.Fatalf("merge result does not reload: %v\n%s", err, buf.Bytes())
			}
			if back.Analyzed != pair[0].Analyzed+pair[1].Analyzed || back.Skipped != pair[0].Skipped+pair[1].Skipped {
				t.Fatalf("reloaded totals %d/%d, want %d/%d", back.Analyzed, back.Skipped,
					pair[0].Analyzed+pair[1].Analyzed, pair[0].Skipped+pair[1].Skipped)
			}
		}
	})
}
