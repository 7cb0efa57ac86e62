package partition

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/sysspec"
)

// indexProbeValues is an aggressive probe corpus: every boundary the schemes
// care about, every flag bit alone and in bulk, plus random words.
func indexProbeValues() []int64 {
	vals := []int64{-(1 << 62), -4096, -2, -1, 0, 1, 2, 3, 4, 5, 7, 8, 100,
		1023, 1024, 1025, 1 << 20, 1<<62 - 1, 1 << 62, 1<<63 - 1}
	for _, f := range sys.OpenFlagNames {
		vals = append(vals, int64(f.Bit))
		vals = append(vals, int64(f.Bit|sys.O_RDWR))
		vals = append(vals, int64(f.Bit|sys.O_ACCMODE))
	}
	for _, b := range sys.ModeBitNames {
		vals = append(vals, int64(b.Bit))
	}
	vals = append(vals, int64(sys.O_SYNC), int64(sys.O_DSYNC),
		int64(sys.O_TMPFILE), int64(sys.O_DIRECTORY),
		int64(sys.O_SYNC|sys.O_TMPFILE|sys.O_RDWR), 0o777, 0o7777)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		vals = append(vals, int64(rng.Uint64()>>1), -int64(rng.Uint64()>>1),
			int64(rng.Intn(1<<24)))
	}
	return vals
}

// TestPartitionIndicesAgreeWithLabels is the reference invariant: for
// every scheme and every probe value, mapping PartitionIndices through
// Domain() must reproduce the reference labeller exactly — same
// partitions, same order.
func TestPartitionIndicesAgreeWithLabels(t *testing.T) {
	schemes := []string{
		sysspec.SchemeOpenFlags, sysspec.SchemeModeBits, sysspec.SchemeBytes,
		sysspec.SchemeOffset, sysspec.SchemeWhence, sysspec.SchemeXattrFlags,
	}
	vals := append(indexProbeValues(), domainProbeValues()...)
	var scratch []int
	for _, scheme := range schemes {
		in := ForScheme(scheme)
		if in == nil {
			t.Fatalf("scheme %q has no partitioner", scheme)
		}
		domain := in.Domain()
		for _, v := range vals {
			scratch = in.PartitionIndices(v, scratch[:0])
			got := make([]string, len(scratch))
			for i, ord := range scratch {
				if ord < 0 || ord >= len(domain) {
					t.Fatalf("%s: value %d: ordinal %d outside domain of %d",
						scheme, v, ord, len(domain))
				}
				got[i] = domain[ord]
			}
			want := referenceLabels(scheme, v)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: value %d: indices map to %v, reference = %v",
					scheme, v, got, want)
			}
		}
	}
}

// TestOutputIndexerAgreesWithOutput checks the compiled output domain against
// the reference output labeller for every spec in the extended table, over all documented
// errnos, undocumented errnos, and return-value boundaries.
func TestOutputIndexerAgreesWithOutput(t *testing.T) {
	tbl := sysspec.NewExtendedTable()
	rets := append([]int64{-5, -1, 0, 1, 2, 1023, 1024, 1 << 30, 1<<62 - 1, 1<<63 - 1},
		domainProbeValues()...)
	for _, base := range tbl.Bases() {
		spec := tbl.Spec(base)
		x := NewOutputIndexer(spec)
		if !reflect.DeepEqual(x.Domain(), OutputDomain(spec)) {
			t.Fatalf("%s: compiled domain differs from OutputDomain", base)
		}
		domain := x.Domain()
		// Success outcomes.
		for _, ret := range rets {
			idx, ok := x.Index(ret, sys.OK)
			if !ok {
				t.Fatalf("%s: success ret %d not indexable", base, ret)
			}
			if want := referenceOutput(spec.Ret, ret, sys.OK); domain[idx] != want {
				t.Fatalf("%s: ret %d: index %d = %q, reference = %q",
					base, ret, idx, domain[idx], want)
			}
		}
		// Documented errnos.
		for _, e := range spec.Errnos {
			idx, ok := x.Index(0, e)
			if !ok || domain[idx] != e.Name() {
				t.Fatalf("%s: errno %s: idx=%d ok=%v", base, e.Name(), idx, ok)
			}
			if idx < x.SuccessOrdinals() {
				t.Fatalf("%s: errno %s indexed into success ordinals", base, e.Name())
			}
		}
		// An errno no spec documents has no ordinal.
		if _, ok := x.Index(0, sys.Errno(250)); ok {
			t.Fatalf("%s: undocumented errno claimed indexable", base)
		}
	}
}

// TestFlagComboSizeMatchesDecode pins the counting fast path to the decoded
// label count.
func TestFlagComboSizeMatchesDecode(t *testing.T) {
	for _, v := range indexProbeValues() {
		if got, want := FlagComboSize(v), len(sys.DecodeOpenFlags(int(v))); got != want {
			t.Fatalf("FlagComboSize(%#o) = %d, len(DecodeOpenFlags) = %d", v, got, want)
		}
	}
}

// TestNumericValue checks that NumericValue inverts the numeric label
// format: every label of every numeric domain (the bytes and offset schemes,
// and the "OK:"-prefixed success outputs) maps to a value whose partition
// is that label's ordinal, and nothing else parses.
func TestNumericValue(t *testing.T) {
	for _, scheme := range []string{sysspec.SchemeBytes, sysspec.SchemeOffset} {
		in := ForScheme(scheme)
		for ord, label := range in.Domain() {
			v, ok := NumericValue(label)
			if !ok {
				t.Fatalf("%s: NumericValue(%q) not ok", scheme, label)
			}
			if got := in.PartitionIndices(v, nil); !reflect.DeepEqual(got, []int{ord}) {
				t.Errorf("%s: NumericValue(%q) = %d, which partitions to %v, want [%d]",
					scheme, label, v, got, ord)
			}
		}
	}
	for _, ret := range []sysspec.RetKind{sysspec.RetBytes, sysspec.RetOffset} {
		x := NewOutputIndexer(&sysspec.Spec{Base: "fake", Variants: []string{"fake"}, Ret: ret})
		for ord, label := range x.Domain() {
			v, ok := NumericValue(strings.TrimPrefix(label, LabelOK+":"))
			if !ok {
				t.Fatalf("output: NumericValue(%q) not ok", label)
			}
			if got, _ := x.Index(v, sys.OK); got != ord {
				t.Errorf("output: NumericValue(%q) = %d, which indexes %d, want %d", label, v, got, ord)
			}
		}
	}
	for label, want := range map[string]int64{"<0": -1, "=0": 0, "2^0": 1, "2^12": 4096, "2^62": 1 << 62} {
		if v, ok := NumericValue(label); !ok || v != want {
			t.Errorf("NumericValue(%q) = %d,%v, want %d", label, v, ok, want)
		}
	}
	for _, label := range []string{"", "2^", "2^63", "2^-1", "2^05", "2^+5", "2^x", "OK:2^3", "O_SYNC", "invalid", "=1"} {
		if v, ok := NumericValue(label); ok {
			t.Errorf("NumericValue(%q) = %d, want not ok", label, v)
		}
	}
}

// TestLabelOrder checks every input scheme's and every output space's
// label order: a permutation of the domain's ordinals whose labels strictly
// ascend, so a snapshot that walks it lists each label once, in the order
// encoding/json sorts a map's keys.
func TestLabelOrder(t *testing.T) {
	check := func(name string, domain []string, order []int) {
		t.Helper()
		if len(order) != len(domain) {
			t.Fatalf("%s: order has %d ordinals, domain %d labels", name, len(order), len(domain))
		}
		seen := make([]bool, len(domain))
		for i, ord := range order {
			if ord < 0 || ord >= len(domain) || seen[ord] {
				t.Fatalf("%s: order %v is not a permutation of the ordinals", name, order)
			}
			seen[ord] = true
			if i > 0 && strings.Compare(domain[order[i-1]], domain[ord]) >= 0 {
				t.Fatalf("%s: label %q does not follow %q", name, domain[ord], domain[order[i-1]])
			}
		}
	}
	for _, scheme := range []string{
		sysspec.SchemeOpenFlags, sysspec.SchemeModeBits, sysspec.SchemeBytes,
		sysspec.SchemeOffset, sysspec.SchemeWhence, sysspec.SchemeXattrFlags,
	} {
		domain := ForScheme(scheme).Domain()
		check(scheme, domain, LabelOrder(domain))
	}
	tbl := sysspec.NewExtendedTable()
	for _, base := range tbl.Bases() {
		x := NewOutputIndexer(tbl.Spec(base))
		check(base+" output", x.Domain(), x.LabelOrder())
	}
	check("empty", nil, LabelOrder(nil))
}
