// Package partition implements the input- and output-space partitioning at
// the heart of IOCov (§3). Each of the paper's four argument classes gets a
// partitioning scheme:
//
//   - bitmap arguments (open flags, mode bits) partition per flag, so one
//     call can hit several partitions;
//   - numeric arguments (byte counts, offsets, lengths) partition by powers
//     of two, with dedicated boundary partitions for zero and negative
//     values;
//   - categorical arguments (lseek whence, setxattr flags) partition per
//     value, plus an "invalid" partition for out-of-domain values;
//   - identifier arguments (fds, pathnames) are recorded but not
//     partitioned by default, matching the paper's future-work boundary.
//
// Outputs partition into success — subdivided by powers of two when the
// syscall returns a byte count — and one partition per errno.
package partition

import (
	"fmt"
	"math/bits"

	"iocov/internal/sys"
	"iocov/internal/sysspec"
)

// MaxLog2 is the largest power-of-two bucket reachable for numeric values:
// the largest positive int64, 2^63-1, rounds down to bucket 2^62. (The
// domain used to end at an unreachable 2^63 bucket; the reachability check
// in TestEverySchemeDomainInvariants flags such dead entries.)
const MaxLog2 = 62

// Labels for the boundary partitions of numeric schemes.
const (
	LabelZero     = "=0"
	LabelNegative = "<0"
	LabelOK       = "OK"
	LabelInvalid  = "invalid"
)

// log2Labels precomputes every reachable power-of-two bucket label so the
// per-event path never formats strings.
var log2Labels = func() [MaxLog2 + 1]string {
	var out [MaxLog2 + 1]string
	for k := range out {
		out[k] = fmt.Sprintf("2^%d", k)
	}
	return out
}()

// Log2Label formats the power-of-two bucket label for exponent k, e.g.
// "2^10" for values in [1024, 2047]. Exponents in [0, MaxLog2] are served
// from a precomputed table.
func Log2Label(k int) string {
	if k >= 0 && k <= MaxLog2 {
		return log2Labels[k]
	}
	return fmt.Sprintf("2^%d", k)
}

// Log2Bucket returns the bucket exponent for a positive value: the paper
// rounds each value down to the nearest power-of-two boundary, so 1024-2047
// all land in bucket 10. The precondition is v > 0; zero and negative
// values belong to the "=0" and "<0" boundary partitions, not to any
// power-of-two bucket, so Log2Bucket returns the sentinel -1 for them
// (rather than letting uint64 wraparound misclassify a negative into
// bucket 63).
//
//iocov:hotpath
func Log2Bucket(v int64) int {
	if v <= 0 {
		return -1
	}
	return bits.Len64(uint64(v)) - 1
}

// Input is a partitioning scheme for one argument class.
type Input interface {
	// Scheme returns the sysspec scheme name this partitioner implements.
	Scheme() string
	// Partitions returns the partition labels hit by one observed value.
	// Bitmap schemes return one label per set flag; all other schemes
	// return exactly one label.
	Partitions(value int64) []string
	// Domain returns every partition label in canonical report order.
	Domain() []string
}

// Indexer is the ordinal counterpart of Input: PartitionIndices reports the
// partitions hit by a value as indices into Domain(), appending them into a
// caller-owned scratch buffer so the per-event hot path performs no
// allocation and no label formatting. Every scheme in the registry
// implements it; the indices agree with Partitions element-for-element
// (same partitions, same order), an invariant the package tests verify over
// the exhaustive probe corpus.
type Indexer interface {
	Input
	// PartitionIndices appends the Domain() ordinals hit by value to
	// scratch and returns the extended slice. Callers reuse the returned
	// slice's backing array across events (pass scratch[:0]).
	PartitionIndices(value int64, scratch []int) []int
}

// IndexerForScheme returns the Indexer for a sysspec scheme name, or nil for
// identifier schemes.
func IndexerForScheme(scheme string) Indexer {
	in, _ := ForScheme(scheme).(Indexer)
	return in
}

// ForScheme returns the Input partitioner for a sysspec scheme name, or nil
// for identifier schemes (which are not partitioned).
func ForScheme(scheme string) Input {
	switch scheme {
	case sysspec.SchemeOpenFlags:
		return openFlagsScheme{}
	case sysspec.SchemeModeBits:
		return modeBitsScheme{}
	case sysspec.SchemeBytes:
		return BytesScheme{}
	case sysspec.SchemeOffset:
		return OffsetScheme{}
	case sysspec.SchemeWhence:
		return whenceScheme{}
	case sysspec.SchemeXattrFlags:
		return xattrFlagsScheme{}
	default:
		return nil
	}
}

// BytesScheme partitions non-negative byte counts: "=0" then powers of two.
// Negative values (which the kernel would reject) land in "<0" so malformed
// traces remain visible rather than silently dropped.
type BytesScheme struct{}

// Scheme implements Input.
func (BytesScheme) Scheme() string { return sysspec.SchemeBytes }

// Partitions implements Input.
func (BytesScheme) Partitions(v int64) []string {
	switch {
	case v < 0:
		return []string{LabelNegative}
	case v == 0:
		return []string{LabelZero}
	default:
		return []string{Log2Label(Log2Bucket(v))}
	}
}

// Domain implements Input.
func (BytesScheme) Domain() []string {
	out := make([]string, 0, MaxLog2+3)
	out = append(out, LabelNegative, LabelZero)
	for k := 0; k <= MaxLog2; k++ {
		out = append(out, Log2Label(k))
	}
	return out
}

// numericIndex is the shared ordinal formula for the numeric domains, whose
// layout is [<0, =0, 2^0 .. 2^MaxLog2].
func numericIndex(v int64) int {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return 1
	default:
		return 2 + Log2Bucket(v)
	}
}

// PartitionIndices implements Indexer.
//
//iocov:hotpath
func (BytesScheme) PartitionIndices(v int64, scratch []int) []int {
	return append(scratch, numericIndex(v))
}

// OffsetScheme partitions signed offsets: negative values get their own
// boundary partition, since a negative offset is a distinct corner case
// (EINVAL for lseek below zero, but legal relative seeks).
type OffsetScheme struct{}

// Scheme implements Input.
func (OffsetScheme) Scheme() string { return sysspec.SchemeOffset }

// Partitions implements Input.
func (OffsetScheme) Partitions(v int64) []string {
	switch {
	case v < 0:
		return []string{LabelNegative}
	case v == 0:
		return []string{LabelZero}
	default:
		return []string{Log2Label(Log2Bucket(v))}
	}
}

// Domain implements Input.
func (OffsetScheme) Domain() []string {
	out := make([]string, 0, MaxLog2+3)
	out = append(out, LabelNegative, LabelZero)
	for k := 0; k <= MaxLog2; k++ {
		out = append(out, Log2Label(k))
	}
	return out
}

// PartitionIndices implements Indexer.
//
//iocov:hotpath
func (OffsetScheme) PartitionIndices(v int64, scratch []int) []int {
	return append(scratch, numericIndex(v))
}

// openFlagsScheme partitions the open flags bitmap per flag name.
type openFlagsScheme struct{}

func (openFlagsScheme) Scheme() string { return sysspec.SchemeOpenFlags }

func (openFlagsScheme) Partitions(v int64) []string {
	return sys.DecodeOpenFlags(int(v))
}

func (openFlagsScheme) Domain() []string {
	out := make([]string, 0, len(sys.OpenFlagNames)+1)
	for _, f := range sys.OpenFlagNames {
		out = append(out, f.Name)
	}
	// DecodeOpenFlags emits this label for a flags word whose access-mode
	// bits are the invalid 0b11 combination; the domain must declare it like
	// any other reachable label (TestEverySchemeDomainInvariants checks it).
	return append(out, sys.AccModeInvalidName)
}

// openFlagOrds holds the Domain() ordinal of every open-flag label, resolved
// once from the domain itself so the ordinal decoder cannot drift from the
// declared order. The composite-only bits reconstruct the O_SYNC/O_DSYNC and
// O_TMPFILE/O_DIRECTORY subsumption exactly as sys.DecodeOpenFlags does.
var openFlagOrds = func() (t struct {
	rdonly, wronly, rdwr, invalid int
	simple                        []struct{ bit, ord int }
	syncOnly, tmpOnly             int
	sync, dsync, tmpfile, dir     int
}) {
	ord := make(map[string]int)
	for i, name := range (openFlagsScheme{}).Domain() {
		ord[name] = i
	}
	t.rdonly, t.wronly, t.rdwr = ord["O_RDONLY"], ord["O_WRONLY"], ord["O_RDWR"]
	t.invalid = ord[sys.AccModeInvalidName]
	// Same simple-flag order as sys.DecodeOpenFlags: PartitionIndices must
	// emit ordinals in exactly the order Partitions emits labels, because
	// TrackCombinations joins them into an order-sensitive combo label.
	for _, f := range []struct {
		bit  int
		name string
	}{
		{sys.O_CREAT, "O_CREAT"},
		{sys.O_EXCL, "O_EXCL"},
		{sys.O_NOCTTY, "O_NOCTTY"},
		{sys.O_TRUNC, "O_TRUNC"},
		{sys.O_APPEND, "O_APPEND"},
		{sys.O_NONBLOCK, "O_NONBLOCK"},
		{sys.O_ASYNC, "O_ASYNC"},
		{sys.O_DIRECT, "O_DIRECT"},
		{sys.O_LARGEFILE, "O_LARGEFILE"},
		{sys.O_NOFOLLOW, "O_NOFOLLOW"},
		{sys.O_NOATIME, "O_NOATIME"},
		{sys.O_CLOEXEC, "O_CLOEXEC"},
		{sys.O_PATH, "O_PATH"},
	} {
		t.simple = append(t.simple, struct{ bit, ord int }{f.bit, ord[f.name]})
	}
	t.syncOnly = sys.O_SYNC &^ sys.O_DSYNC
	t.tmpOnly = sys.O_TMPFILE &^ sys.O_DIRECTORY
	t.sync, t.dsync = ord["O_SYNC"], ord["O_DSYNC"]
	t.tmpfile, t.dir = ord["O_TMPFILE"], ord["O_DIRECTORY"]
	return t
}()

// PartitionIndices implements Indexer, mirroring sys.DecodeOpenFlags without
// allocating label slices.
//
//iocov:hotpath
func (openFlagsScheme) PartitionIndices(v int64, scratch []int) []int {
	flags := int(v)
	switch flags & sys.O_ACCMODE {
	case sys.O_RDONLY:
		scratch = append(scratch, openFlagOrds.rdonly)
	case sys.O_WRONLY:
		scratch = append(scratch, openFlagOrds.wronly)
	case sys.O_RDWR:
		scratch = append(scratch, openFlagOrds.rdwr)
	default:
		scratch = append(scratch, openFlagOrds.invalid)
	}
	for _, f := range openFlagOrds.simple {
		if flags&f.bit != 0 {
			scratch = append(scratch, f.ord)
		}
	}
	switch {
	case flags&openFlagOrds.syncOnly != 0:
		scratch = append(scratch, openFlagOrds.sync)
	case flags&sys.O_DSYNC != 0:
		scratch = append(scratch, openFlagOrds.dsync)
	}
	switch {
	case flags&openFlagOrds.tmpOnly != 0:
		scratch = append(scratch, openFlagOrds.tmpfile)
	case flags&sys.O_DIRECTORY != 0:
		scratch = append(scratch, openFlagOrds.dir)
	}
	return scratch
}

// modeBitsScheme partitions a mode argument per permission bit; a zero mode
// hits the "=0" boundary partition.
type modeBitsScheme struct{}

func (modeBitsScheme) Scheme() string { return sysspec.SchemeModeBits }

func (modeBitsScheme) Partitions(v int64) []string {
	names := sys.DecodeModeBits(uint32(v))
	if len(names) == 0 {
		return []string{LabelZero}
	}
	return names
}

func (modeBitsScheme) Domain() []string {
	out := make([]string, 0, len(sys.ModeBitNames)+1)
	out = append(out, LabelZero)
	for _, b := range sys.ModeBitNames {
		out = append(out, b.Name)
	}
	return out
}

// PartitionIndices implements Indexer: the domain is "=0" at ordinal 0
// followed by sys.ModeBitNames in order, and sys.DecodeModeBits walks the
// bits in that same order.
//
//iocov:hotpath
func (modeBitsScheme) PartitionIndices(v int64, scratch []int) []int {
	n := len(scratch)
	for i, b := range sys.ModeBitNames {
		if uint32(v)&b.Bit != 0 {
			scratch = append(scratch, 1+i)
		}
	}
	if len(scratch) == n {
		scratch = append(scratch, 0)
	}
	return scratch
}

// whenceScheme partitions lseek's whence categorically.
type whenceScheme struct{}

func (whenceScheme) Scheme() string { return sysspec.SchemeWhence }

func (whenceScheme) Partitions(v int64) []string {
	if v >= 0 && v < int64(len(sys.WhenceNames)) {
		return []string{sys.WhenceNames[v]}
	}
	return []string{LabelInvalid}
}

func (whenceScheme) Domain() []string {
	return append(append([]string(nil), sys.WhenceNames...), LabelInvalid)
}

// PartitionIndices implements Indexer: whence values index the domain
// directly, with the trailing "invalid" ordinal for out-of-range values.
//
//iocov:hotpath
func (whenceScheme) PartitionIndices(v int64, scratch []int) []int {
	if v >= 0 && v < int64(len(sys.WhenceNames)) {
		return append(scratch, int(v))
	}
	return append(scratch, len(sys.WhenceNames))
}

// xattrFlagsScheme partitions setxattr's flags categorically: 0,
// XATTR_CREATE, XATTR_REPLACE, or invalid.
type xattrFlagsScheme struct{}

func (xattrFlagsScheme) Scheme() string { return sysspec.SchemeXattrFlags }

func (xattrFlagsScheme) Partitions(v int64) []string {
	switch int(v) {
	case 0, sys.XATTR_CREATE, sys.XATTR_REPLACE:
		return []string{sys.XattrFlagName(int(v))}
	default:
		return []string{LabelInvalid}
	}
}

func (xattrFlagsScheme) Domain() []string {
	return []string{"0", "XATTR_CREATE", "XATTR_REPLACE", LabelInvalid}
}

// PartitionIndices implements Indexer: the three legal values index the
// domain directly (XATTR_CREATE = 1, XATTR_REPLACE = 2).
//
//iocov:hotpath
func (xattrFlagsScheme) PartitionIndices(v int64, scratch []int) []int {
	switch v {
	case 0, sys.XATTR_CREATE, sys.XATTR_REPLACE:
		return append(scratch, int(v))
	default:
		return append(scratch, 3)
	}
}

// Output partitions a syscall outcome. On failure the partition is the
// errno name; on success it is "OK", refined to "OK:2^k" buckets when the
// syscall returns a byte count or offset.
func Output(ret sysspec.RetKind, retVal int64, err sys.Errno) string {
	if err != sys.OK {
		return err.Name()
	}
	switch ret {
	case sysspec.RetBytes, sysspec.RetOffset:
		// A success with a negative return value is a distinct corner
		// (malformed trace, or a signed-offset return); keep it apart
		// from the legitimate zero-byte result.
		if retVal < 0 {
			return LabelOK + ":" + LabelNegative
		}
		if retVal == 0 {
			return LabelOK + ":" + LabelZero
		}
		return LabelOK + ":" + Log2Label(Log2Bucket(retVal))
	default:
		return LabelOK
	}
}

// OutputDomain returns the canonical output partitions for a spec: the
// success partitions followed by one per documented errno.
func OutputDomain(spec *sysspec.Spec) []string {
	var out []string
	switch spec.Ret {
	case sysspec.RetBytes, sysspec.RetOffset:
		out = append(out, LabelOK+":"+LabelNegative, LabelOK+":"+LabelZero)
		for k := 0; k <= MaxLog2; k++ {
			out = append(out, LabelOK+":"+Log2Label(k))
		}
	default:
		out = append(out, LabelOK)
	}
	for _, e := range spec.Errnos {
		out = append(out, e.Name())
	}
	return out
}

// IsSuccess reports whether an output partition label is a success
// partition.
func IsSuccess(label string) bool {
	return label == LabelOK || (len(label) > 3 && label[:3] == LabelOK+":")
}

// OutputIndexer is the compiled form of a spec's output space: it maps an
// outcome to an ordinal in OutputDomain(spec) without formatting a label.
// Errnos outside the spec's documented universe report ok=false; callers
// fall back to the label path for those (they land in a report's Extra
// section, exactly as before).
type OutputIndexer struct {
	bytes   bool
	success int // number of leading success ordinals in the domain
	errno   map[sys.Errno]int
	domain  []string
}

// NewOutputIndexer compiles the output domain of spec.
func NewOutputIndexer(spec *sysspec.Spec) *OutputIndexer {
	x := &OutputIndexer{
		bytes:  spec.Ret == sysspec.RetBytes || spec.Ret == sysspec.RetOffset,
		domain: OutputDomain(spec),
		errno:  make(map[sys.Errno]int, len(spec.Errnos)),
	}
	x.success = len(x.domain) - len(spec.Errnos)
	for i, e := range spec.Errnos {
		x.errno[e] = x.success + i
	}
	return x
}

// Index returns the OutputDomain ordinal for one outcome, mirroring Output.
// ok is false for an errno the spec does not document.
//
//iocov:hotpath
func (x *OutputIndexer) Index(retVal int64, err sys.Errno) (idx int, ok bool) {
	if err != sys.OK {
		idx, ok = x.errno[err]
		return idx, ok
	}
	if !x.bytes {
		return 0, true
	}
	// Success domain layout: [OK:<0, OK:=0, OK:2^0 .. OK:2^MaxLog2].
	return numericIndex(retVal), true
}

// Domain returns the compiled output domain (identical to
// OutputDomain(spec)).
func (x *OutputIndexer) Domain() []string { return x.domain }

// SuccessOrdinals returns how many leading domain ordinals are success
// partitions; everything at or beyond it is an errno partition.
func (x *OutputIndexer) SuccessOrdinals() int { return x.success }

// openFlagSimpleMask is the union of the non-composite open-flag bits, for
// counting combination sizes without decoding labels.
var openFlagSimpleMask = func() int {
	m := 0
	for _, f := range openFlagOrds.simple {
		m |= f.bit
	}
	return m
}()

// FlagComboSize counts how many named flags an open flags word combines
// (the access mode counts as one flag, so the minimum is 1). Table 1 is
// built from this. It equals len(sys.DecodeOpenFlags(flags)) but performs
// no allocation.
//
//iocov:hotpath
func FlagComboSize(flags int64) int {
	f := int(flags)
	n := 1 + bits.OnesCount(uint(f&openFlagSimpleMask))
	if f&(openFlagOrds.syncOnly|sys.O_DSYNC) != 0 {
		n++
	}
	if f&(openFlagOrds.tmpOnly|sys.O_DIRECTORY) != 0 {
		n++
	}
	return n
}

// HasRdonly reports whether the flags word's access mode is O_RDONLY, which
// is how Table 1's "O_RDONLY" rows restrict combinations.
//
//iocov:hotpath
func HasRdonly(flags int64) bool {
	return int(flags)&sys.O_ACCMODE == sys.O_RDONLY
}
