package coverage

import (
	"bytes"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/trace"
)

// snapshotBytes encodes a snapshot exactly the way the daemon's /report
// endpoint does.
func snapshotBytes(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestMergeSnapshotsMatchesAnalyzerMerge is the core contract: merging two
// snapshots must be byte-identical (as JSON) to snapshotting the merged
// analyzers.
func TestMergeSnapshotsMatchesAnalyzerMerge(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(0, 0, 3, sys.OK))
	a.Add(openEvent(int64(sys.O_WRONLY|sys.O_CREAT), 0o644, 4, sys.OK))
	a.Add(writeEvent(4096, 4096, sys.OK))
	a.Add(trace.Event{Name: "bogus_syscall", PID: 1}) // skipped

	b := NewAnalyzer(DefaultOptions())
	b.Add(openEvent(int64(sys.O_RDWR|sys.O_TRUNC), 0, -int64(sys.ENOENT), sys.ENOENT))
	b.Add(writeEvent(1, 0, sys.ENOSPC))
	b.Add(withArgs(trace.Event{Name: "lseek", PID: 1,
		Ret: 512}, nil, numArgs{{"fd", 3}, {"offset", 512}, {"whence", int64(sys.SEEK_SET)}}))
	// An errno outside write's documented universe lands in Extra.
	b.Add(writeEvent(8, -int64(sys.EACCES), sys.EACCES))

	snapA, snapB := a.Snapshot(0), b.Snapshot(0)
	got := snapshotBytes(t, MergeSnapshots(snapA, snapB))

	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	want := snapshotBytes(t, a.Snapshot(0))
	if !bytes.Equal(got, want) {
		t.Errorf("MergeSnapshots != merged-analyzer snapshot\n got: %s\nwant: %s", got, want)
	}
}

// TestMergeSnapshotsRestoreIdentity pins the checkpoint-restore path: a
// snapshot decoded from its own JSON and merged with an empty snapshot must
// re-encode to the same bytes.
func TestMergeSnapshotsRestoreIdentity(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(int64(sys.O_RDWR|sys.O_CREAT|sys.O_TRUNC), 0o600, 5, sys.OK))
	a.Add(writeEvent(1<<16, 1<<16, sys.OK))
	orig := snapshotBytes(t, a.Snapshot(0))

	loaded, err := LoadSnapshot(bytes.NewReader(orig))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	restored := snapshotBytes(t, MergeSnapshots(loaded, &Snapshot{}))
	if !bytes.Equal(restored, orig) {
		t.Errorf("restore not byte-identical\n got: %s\nwant: %s", restored, orig)
	}
	// And merged the other way around.
	restored = snapshotBytes(t, MergeSnapshots(nil, loaded))
	if !bytes.Equal(restored, orig) {
		t.Errorf("nil-merge restore not byte-identical")
	}
}

// TestMergeSnapshotsDoesNotAlias: mutating the merge result must not touch
// the inputs.
func TestMergeSnapshotsDoesNotAlias(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	a.Add(openEvent(0, 0, 3, sys.OK))
	snapA := a.Snapshot(0)
	merged := MergeSnapshots(snapA, nil)
	for i := range merged.Inputs {
		for j := range merged.Inputs[i].Counts {
			merged.Inputs[i].Counts[j].Count += 100
		}
	}
	if snapA.Inputs[0].Counts.Get("O_RDONLY") != 1 {
		t.Errorf("merge aliased input snapshot: %v", snapA.Inputs[0].Counts)
	}
}

func TestPartitionHits(t *testing.T) {
	a := NewAnalyzer(DefaultOptions())
	// One open: flags partition (O_RDONLY) + mode partitions + output hit.
	a.Add(openEvent(0, 0, 3, sys.OK))
	hits := a.PartitionHits()
	if hits["open"] < 3 {
		t.Errorf("open hits = %d, want >= 3 (flags + mode + output)", hits["open"])
	}
	if len(hits) != 1 {
		t.Errorf("hits for %d syscalls, want 1: %v", len(hits), hits)
	}
	// Extra-errno output hits count too.
	a.Add(writeEvent(8, -int64(sys.EACCES), sys.EACCES))
	hits = a.PartitionHits()
	if hits["write"] < 2 {
		t.Errorf("write hits = %d, want >= 2 (count partition + extra errno)", hits["write"])
	}
}
