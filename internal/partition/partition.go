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
	"slices"
	"strconv"
	"strings"

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
func Log2Bucket(v int64) int {
	if v <= 0 {
		return -1
	}
	return bits.Len64(uint64(v)) - 1
}

// Input is a partitioning scheme for one argument class: it maps an observed
// value to the partitions it hits, as ordinals into its Domain. Bitmap
// schemes hit one partition per set flag; all other schemes hit exactly one.
// The per-event hot path performs no allocation and no label formatting; the
// label a report shows is Domain()[ordinal].
type Input interface {
	// Scheme returns the sysspec scheme name this partitioner implements.
	Scheme() string
	// Domain returns every partition label in canonical report order.
	Domain() []string
	// PartitionIndices appends the Domain() ordinals hit by value to
	// scratch and returns the extended slice. Callers reuse the returned
	// slice's backing array across events (pass scratch[:0]).
	PartitionIndices(value int64, scratch []int) []int
}

// ForScheme returns the Input partitioner for a sysspec scheme name, or nil
// for identifier schemes (which are not partitioned).
func ForScheme(scheme string) Input {
	switch scheme {
	case sysspec.SchemeOpenFlags:
		return openFlagsScheme{}
	case sysspec.SchemeModeBits:
		return modeBitsScheme{}
	case sysspec.SchemeBytes, sysspec.SchemeOffset:
		return numericScheme(scheme)
	case sysspec.SchemeWhence:
		return whenceScheme{}
	case sysspec.SchemeXattrFlags:
		return xattrFlagsScheme{}
	default:
		return nil
	}
}

// numericScheme partitions byte counts and offsets by powers of two, with
// boundary partitions "=0" and "<0". A negative byte count (which the kernel
// would reject) stays visible in "<0" rather than silently dropped; a
// negative offset is a distinct corner case too (EINVAL for lseek below
// zero, but legal relative seeks). The value is the scheme name it is
// registered under.
type numericScheme string

// Scheme implements Input.
func (s numericScheme) Scheme() string { return string(s) }

// Domain implements Input.
func (numericScheme) Domain() []string { return numericDomain("") }

// PartitionIndices implements Input.
func (numericScheme) PartitionIndices(v int64, scratch []int) []int {
	return append(scratch, numericIndex(v))
}

// numericDomain is the numeric layout [<0, =0, 2^0 .. 2^MaxLog2], each label
// carrying prefix: "" for input schemes, "OK:" for byte-count and offset
// success outputs.
func numericDomain(prefix string) []string {
	out := make([]string, 0, MaxLog2+3)
	out = append(out, prefix+LabelNegative, prefix+LabelZero)
	for k := 0; k <= MaxLog2; k++ {
		out = append(out, prefix+Log2Label(k))
	}
	return out
}

// numericIndex is the ordinal of v in numericDomain.
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

// NumericValue is the inverse of the numeric label format: it maps a
// numericDomain label (without prefix) to the smallest value in that
// partition, "<0" to -1, "=0" to 0 and "2^k" to 1<<k. Feedback loops use it
// to turn an untested partition back into a probe value. ok is false for
// any other label.
func NumericValue(label string) (v int64, ok bool) {
	switch label {
	case LabelNegative:
		return -1, true
	case LabelZero:
		return 0, true
	}
	rest, found := strings.CutPrefix(label, "2^")
	if !found {
		return 0, false
	}
	k, err := strconv.Atoi(rest)
	if err != nil || k < 0 || k > MaxLog2 || Log2Label(k) != label {
		return 0, false
	}
	return int64(1) << k, true
}

// openFlagsScheme partitions the open flags bitmap per flag name.
type openFlagsScheme struct{}

func (openFlagsScheme) Scheme() string { return sysspec.SchemeOpenFlags }

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
	// The simple flags are emitted in sys.SimpleOpenFlags order, because
	// TrackCombinations joins the ordinals into an order-sensitive combo
	// label.
	for _, f := range sys.SimpleOpenFlags {
		t.simple = append(t.simple, struct{ bit, ord int }{f.Bit, ord[f.Name]})
	}
	t.syncOnly = sys.O_SYNC &^ sys.O_DSYNC
	t.tmpOnly = sys.O_TMPFILE &^ sys.O_DIRECTORY
	t.sync, t.dsync = ord["O_SYNC"], ord["O_DSYNC"]
	t.tmpfile, t.dir = ord["O_TMPFILE"], ord["O_DIRECTORY"]
	return t
}()

// PartitionIndices implements Input, mirroring sys.DecodeOpenFlags without
// allocating label slices.
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

func (modeBitsScheme) Domain() []string {
	out := make([]string, 0, len(sys.ModeBitNames)+1)
	out = append(out, LabelZero)
	for _, b := range sys.ModeBitNames {
		out = append(out, b.Name)
	}
	return out
}

// PartitionIndices implements Input: the domain is "=0" at ordinal 0
// followed by sys.ModeBitNames in order, so each set bit's ordinal is its
// table position plus one, and a mode with no tracked bit hits "=0".
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

func (whenceScheme) Domain() []string {
	return append(append([]string(nil), sys.WhenceNames...), LabelInvalid)
}

// PartitionIndices implements Input: whence values index the domain
// directly, with the trailing "invalid" ordinal for out-of-range values.
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

func (xattrFlagsScheme) Domain() []string {
	return []string{"0", "XATTR_CREATE", "XATTR_REPLACE", LabelInvalid}
}

// PartitionIndices implements Input: the three legal values index the
// domain directly (XATTR_CREATE = 1, XATTR_REPLACE = 2).
func (xattrFlagsScheme) PartitionIndices(v int64, scratch []int) []int {
	switch v {
	case 0, sys.XATTR_CREATE, sys.XATTR_REPLACE:
		return append(scratch, int(v))
	default:
		return append(scratch, 3)
	}
}

// LabelOrder returns the ordinals of a domain sorted by label under
// strings.Compare, the order encoding/json gives a map's keys. Reports list
// a domain in ordinal order; a snapshot's counts list it in this order, so
// a render walks the domain once in either order without sorting. Callers
// compute it once per domain, not per render.
func LabelOrder(domain []string) []int {
	order := make([]int, len(domain))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int { return strings.Compare(domain[x], domain[y]) })
	return order
}

// OutputDomain returns the canonical output partitions for a spec: the
// success partitions followed by one per documented errno. On failure the
// partition is the errno name; on success it is "OK", refined to "OK:2^k"
// buckets when the syscall returns a byte count or offset.
func OutputDomain(spec *sysspec.Spec) []string {
	var out []string
	switch spec.Ret {
	case sysspec.RetBytes, sysspec.RetOffset:
		// A success with a negative return value is a distinct corner
		// (malformed trace, or a signed-offset return), kept apart from
		// the legitimate zero-byte result.
		out = numericDomain(LabelOK + ":")
	default:
		out = []string{LabelOK}
	}
	for _, e := range spec.Errnos {
		out = append(out, e.Name())
	}
	return out
}

// OutputIndexer is the compiled form of a spec's output space: it maps an
// outcome to an ordinal in OutputDomain(spec) without formatting a label.
// Errnos outside the spec's documented universe report ok=false; callers
// count those by errno name (they land in a report's Extra section).
type OutputIndexer struct {
	bytes   bool
	success int // number of leading success ordinals in the domain
	errno   map[sys.Errno]int
	domain  []string
	order   []int // LabelOrder(domain)
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
	x.order = LabelOrder(x.domain)
	return x
}

// Index returns the OutputDomain ordinal for one outcome: the errno's
// partition on failure, else the success partition of retVal. ok is false for an errno the spec does not document.
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

// LabelOrder returns the domain's ordinals sorted by label, computed once
// at construction (see the function LabelOrder).
func (x *OutputIndexer) LabelOrder() []int { return x.order }

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

// MaxFlagComboSize bounds FlagComboSize: the access mode, every single-bit
// flag of sys.SimpleOpenFlags, and the two composite pairs (O_SYNC/O_DSYNC,
// O_TMPFILE/O_DIRECTORY), each of which counts once. Table 1's counters are
// arrays indexed by the combination size, MaxFlagComboSize+1 long.
const MaxFlagComboSize = 16

// FlagComboSize counts how many named flags an open flags word combines
// (the access mode counts as one flag, so the minimum is 1). Table 1 is
// built from this. It equals len(sys.DecodeOpenFlags(flags)) but performs
// no allocation, and it never exceeds MaxFlagComboSize.
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
func HasRdonly(flags int64) bool {
	return int(flags)&sys.O_ACCMODE == sys.O_RDONLY
}
