package partition

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"iocov/internal/sys"
	"iocov/internal/sysspec"
)

func TestLog2Bucket(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {2047, 10}, {2048, 11},
		{1 << 28, 28}, {(1 << 28) + 1, 28}, // the paper's 258 MiB max write lands in 2^28
		{math.MaxInt64, 62},
		// Zero and negatives are out of precondition: sentinel, not a
		// wrapped-around bucket 63.
		{0, -1}, {-1, -1}, {-4096, -1}, {math.MinInt64, -1},
	}
	for _, c := range cases {
		if got := Log2Bucket(c.v); got != c.want {
			t.Errorf("Log2Bucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLog2BucketProperty(t *testing.T) {
	// Every positive v lands in bucket k with 2^k <= v < 2^(k+1).
	f := func(v int64) bool {
		if v <= 0 {
			return true
		}
		k := Log2Bucket(v)
		if k < 0 || k > 62 {
			return false
		}
		lo := int64(1) << uint(k)
		if v < lo {
			return false
		}
		if k < 62 {
			hi := int64(1) << uint(k+1)
			if v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// labelsOf runs the production partitioner on one value and maps the
// ordinals it reports through its Domain.
func labelsOf(in Input, v int64) []string {
	domain := in.Domain()
	var out []string
	for _, ord := range in.PartitionIndices(v, nil) {
		out = append(out, domain[ord])
	}
	return out
}

func TestBytesScheme(t *testing.T) {
	s := ForScheme(sysspec.SchemeBytes)
	if s.Scheme() != sysspec.SchemeBytes {
		t.Errorf("Scheme() = %q", s.Scheme())
	}
	cases := map[int64]string{
		-5:   LabelNegative,
		0:    LabelZero,
		1:    "2^0",
		1024: "2^10",
		2047: "2^10",
	}
	for v, want := range cases {
		got := labelsOf(s, v)
		if len(got) != 1 || got[0] != want {
			t.Errorf("labels(%d) = %v, want [%s]", v, got, want)
		}
	}
	dom := s.Domain()
	if dom[0] != LabelNegative || dom[1] != LabelZero || dom[2] != "2^0" || len(dom) != MaxLog2+3 {
		t.Errorf("domain = %v...", dom[:3])
	}
	// Regression: every ordinal PartitionIndices reports must index Domain.
	for _, v := range []int64{-5, 0, 1, 1024, math.MaxInt64} {
		for _, ord := range s.PartitionIndices(v, nil) {
			if ord < 0 || ord >= len(dom) {
				t.Errorf("PartitionIndices(%d) reports ordinal %d outside Domain", v, ord)
			}
		}
	}
}

func TestOffsetSchemeDomainIncludesNegative(t *testing.T) {
	s := ForScheme(sysspec.SchemeOffset)
	if s.Scheme() != sysspec.SchemeOffset {
		t.Errorf("Scheme() = %q", s.Scheme())
	}
	dom := s.Domain()
	if dom[0] != LabelNegative || dom[1] != LabelZero {
		t.Errorf("offset domain head = %v", dom[:2])
	}
	if got := labelsOf(s, -1); got[0] != LabelNegative {
		t.Errorf("labels(-1) = %v", got)
	}
}

func TestOpenFlagsScheme(t *testing.T) {
	s := ForScheme(sysspec.SchemeOpenFlags)
	got := labelsOf(s, int64(sys.O_RDWR|sys.O_CREAT|sys.O_TRUNC))
	want := []string{"O_RDWR", "O_CREAT", "O_TRUNC"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags partitions = %v, want %v", got, want)
	}
	// O_RDONLY is value zero but still a partition.
	got = labelsOf(s, 0)
	if !reflect.DeepEqual(got, []string{"O_RDONLY"}) {
		t.Errorf("zero flags = %v", got)
	}
	// O_SYNC subsumes O_DSYNC.
	got = labelsOf(s, int64(sys.O_WRONLY|sys.O_SYNC))
	if !reflect.DeepEqual(got, []string{"O_WRONLY", "O_SYNC"}) {
		t.Errorf("O_SYNC decode = %v", got)
	}
	// O_DSYNC alone stays O_DSYNC.
	got = labelsOf(s, int64(sys.O_WRONLY|sys.O_DSYNC))
	if !reflect.DeepEqual(got, []string{"O_WRONLY", "O_DSYNC"}) {
		t.Errorf("O_DSYNC decode = %v", got)
	}
	// Figure 2's x-axis: 20 flags, plus the invalid-access-mode label.
	if len(s.Domain()) != 21 {
		t.Errorf("open flags domain = %d, want 21", len(s.Domain()))
	}
	// The invalid access mode 0b11 partitions to a declared label.
	got = labelsOf(s, int64(sys.O_ACCMODE))
	if !reflect.DeepEqual(got, []string{sys.AccModeInvalidName}) {
		t.Errorf("invalid accmode = %v", got)
	}
}

func TestModeBitsScheme(t *testing.T) {
	s := ForScheme(sysspec.SchemeModeBits)
	got := labelsOf(s, 0o644)
	want := []string{"S_IRUSR", "S_IWUSR", "S_IRGRP", "S_IROTH"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("0644 = %v, want %v", got, want)
	}
	if got := labelsOf(s, 0); !reflect.DeepEqual(got, []string{LabelZero}) {
		t.Errorf("zero mode = %v", got)
	}
	if got := labelsOf(s, 0o4755); got[0] != "S_ISUID" {
		t.Errorf("setuid missing: %v", got)
	}
}

func TestWhenceScheme(t *testing.T) {
	s := ForScheme(sysspec.SchemeWhence)
	if got := labelsOf(s, 0); got[0] != "SEEK_SET" {
		t.Errorf("whence 0 = %v", got)
	}
	if got := labelsOf(s, 4); got[0] != "SEEK_HOLE" {
		t.Errorf("whence 4 = %v", got)
	}
	if got := labelsOf(s, 99); got[0] != LabelInvalid {
		t.Errorf("whence 99 = %v", got)
	}
	if got := labelsOf(s, -1); got[0] != LabelInvalid {
		t.Errorf("whence -1 = %v", got)
	}
}

func TestXattrFlagsScheme(t *testing.T) {
	s := ForScheme(sysspec.SchemeXattrFlags)
	if got := labelsOf(s, 0); got[0] != "0" {
		t.Errorf("flags 0 = %v", got)
	}
	if got := labelsOf(s, sys.XATTR_CREATE); got[0] != "XATTR_CREATE" {
		t.Errorf("XATTR_CREATE = %v", got)
	}
	if got := labelsOf(s, 3); got[0] != LabelInvalid {
		t.Errorf("flags 3 = %v", got)
	}
}

func TestForSchemeIdentifierIsNil(t *testing.T) {
	if ForScheme(sysspec.SchemePath) != nil || ForScheme(sysspec.SchemeFD) != nil {
		t.Error("identifier schemes should not be partitioned")
	}
	if ForScheme("bogus") != nil {
		t.Error("unknown scheme should be nil")
	}
}

// outputOf runs the compiled output partitioner on one outcome of a spec
// whose syscall returns ret and documents err.
func outputOf(ret sysspec.RetKind, retVal int64, err sys.Errno) string {
	spec := &sysspec.Spec{Base: "fake", Variants: []string{"fake"}, Ret: ret}
	if err != sys.OK {
		spec.Errnos = []sys.Errno{err}
	}
	x := NewOutputIndexer(spec)
	idx, ok := x.Index(retVal, err)
	if !ok {
		return "(unindexed)"
	}
	return x.Domain()[idx]
}

func TestOutputPartitioning(t *testing.T) {
	if got := outputOf(sysspec.RetFD, 3, sys.OK); got != "OK" {
		t.Errorf("fd success = %s", got)
	}
	if got := outputOf(sysspec.RetFD, -2, sys.ENOENT); got != "ENOENT" {
		t.Errorf("fd failure = %s", got)
	}
	if got := outputOf(sysspec.RetBytes, 4096, sys.OK); got != "OK:2^12" {
		t.Errorf("bytes success = %s", got)
	}
	if got := outputOf(sysspec.RetBytes, 0, sys.OK); got != "OK:=0" {
		t.Errorf("zero bytes = %s", got)
	}
	// A negative success return is its own partition, not folded into =0.
	if got := outputOf(sysspec.RetBytes, -7, sys.OK); got != "OK:<0" {
		t.Errorf("negative bytes success = %s", got)
	}
	if got := outputOf(sysspec.RetOffset, -1, sys.OK); got != "OK:<0" {
		t.Errorf("negative offset success = %s", got)
	}
	if got := outputOf(sysspec.RetZero, 0, sys.OK); got != "OK" {
		t.Errorf("zero ret = %s", got)
	}
}

func TestOutputDomain(t *testing.T) {
	tbl := sysspec.NewTable()
	open := OutputDomain(tbl.Spec("open"))
	// 1 OK + 27 errnos = Figure 4's 28 x-labels.
	if len(open) != 28 {
		t.Errorf("open output domain = %d, want 28", len(open))
	}
	if open[0] != "OK" {
		t.Errorf("open domain head = %s", open[0])
	}
	write := OutputDomain(tbl.Spec("write"))
	if write[0] != "OK:<0" || write[1] != "OK:=0" || write[2] != "OK:2^0" {
		t.Errorf("write domain head = %v", write[:3])
	}
	// Every success label an outcome can carry must be in the domain.
	inDomain := make(map[string]bool)
	for _, l := range write {
		inDomain[l] = true
	}
	for _, v := range []int64{-1, 0, 1, 4096, math.MaxInt64} {
		if l := referenceOutput(sysspec.RetBytes, v, sys.OK); !inDomain[l] {
			t.Errorf("referenceOutput(RetBytes, %d, OK) = %q, not in domain", v, l)
		}
	}
}

func TestIsSuccess(t *testing.T) {
	for label, want := range map[string]bool{
		"OK": true, "OK:2^5": true, "OK:=0": true, "OK:<0": true,
		"ENOENT": false, "EACCES": false, "": false,
	} {
		if isSuccess(label) != want {
			t.Errorf("isSuccess(%q) = %v", label, !want)
		}
	}
}

func TestFlagComboSize(t *testing.T) {
	cases := map[int64]int{
		0:                                 1, // O_RDONLY alone
		int64(sys.O_RDWR):                 1,
		int64(sys.O_WRONLY | sys.O_CREAT): 2,
		int64(sys.O_RDWR | sys.O_CREAT | sys.O_TRUNC):              3,
		int64(sys.O_RDWR | sys.O_CREAT | sys.O_TRUNC | sys.O_SYNC): 4,
	}
	for flags, want := range cases {
		if got := FlagComboSize(flags); got != want {
			t.Errorf("FlagComboSize(%o) = %d, want %d", flags, got, want)
		}
	}
}

// TestMaxFlagComboSize pins the constant to the flag table it bounds: a
// flags word with every bit set names the access mode, every simple flag and
// both composites, and nothing combines more.
func TestMaxFlagComboSize(t *testing.T) {
	if want := 1 + len(sys.SimpleOpenFlags) + 2; MaxFlagComboSize != want {
		t.Fatalf("MaxFlagComboSize = %d, flag table allows %d", MaxFlagComboSize, want)
	}
	if got := FlagComboSize(-1); got != MaxFlagComboSize {
		t.Fatalf("FlagComboSize(all bits) = %d, want %d", got, MaxFlagComboSize)
	}
	for _, v := range indexProbeValues() {
		if k := FlagComboSize(v); k < 1 || k > MaxFlagComboSize {
			t.Fatalf("FlagComboSize(%#o) = %d, outside [1, %d]", v, k, MaxFlagComboSize)
		}
	}
}

func TestHasRdonly(t *testing.T) {
	if !HasRdonly(0) || !HasRdonly(int64(sys.O_CREAT)) {
		t.Error("O_RDONLY accmode not detected")
	}
	if HasRdonly(int64(sys.O_WRONLY)) || HasRdonly(int64(sys.O_RDWR)) {
		t.Error("non-RDONLY accmode misdetected")
	}
}
