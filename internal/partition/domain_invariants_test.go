package partition

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"iocov/internal/sys"
	"iocov/internal/sysspec"
)

// The domain contract every scheme and output space must keep, because the
// analyzer's dense counters are indexed by Domain() ordinals and reports
// list Domain() in order:
//
//   - the domain is non-empty and duplicate-free;
//   - every label Partitions (or Output) emits over the probe set is in the
//     domain (the original BytesScheme bug: "<0" reachable but undeclared);
//   - every domain label is reached by some probe (a dead entry, like the
//     unreachable 2^63 bucket the domain once ended with, is an untested
//     partition no workload can ever cover);
//   - numeric domains are canonically ordered: "<0"/"=0" before the
//     power-of-two buckets, whose exponents strictly ascend;
//   - output domains list success labels first, then errno labels sorted
//     by name.

// domainProbeValues is the exhaustive probe set: numeric boundaries, every
// power of two with neighbours, every named flag and mode bit with
// access-mode combinations, common and all-flags open combinations, and
// the categorical whence and xattr values (plus out-of-range neighbours on
// both sides).
func domainProbeValues() []int64 {
	seen := make(map[int64]bool)
	var out []int64
	add := func(vs ...int64) {
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	add(math.MinInt64, math.MaxInt64, -12345, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7)
	for k := 0; k <= MaxLog2; k++ {
		v := int64(1) << k
		add(v-1, v, v+1)
	}
	var allFlags int64
	for _, f := range sys.OpenFlagNames {
		add(int64(f.Bit))
		add(int64(f.Bit | sys.O_WRONLY))
		add(int64(f.Bit | sys.O_RDWR))
		add(int64(f.Bit | sys.O_ACCMODE)) // invalid access mode under each flag
		allFlags |= int64(f.Bit)
	}
	add(int64(sys.O_RDWR | sys.O_CREAT | sys.O_TRUNC))
	add(int64(sys.O_WRONLY | sys.O_CREAT | sys.O_EXCL | sys.O_SYNC))
	add(allFlags)
	for _, b := range sys.ModeBitNames {
		add(int64(b.Bit))
	}
	add(int64(sys.PermMask), 0o7777, 0o170000)
	add(int64(sys.XATTR_CREATE), int64(sys.XATTR_REPLACE))
	for w := int64(-1); w < int64(len(sys.WhenceNames))+2; w++ {
		add(w)
	}
	return out
}

// trackedSchemes enumerates every scheme name either sysspec table declares.
func trackedSchemes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, tbl := range []*sysspec.Table{sysspec.NewTable(), sysspec.NewExtendedTable()} {
		for _, base := range tbl.Bases() {
			for _, arg := range tbl.Spec(base).TrackedArgs() {
				if !seen[arg.Scheme] {
					seen[arg.Scheme] = true
					out = append(out, arg.Scheme)
				}
			}
		}
	}
	return out
}

// checkDomain checks the contract for one label space: name prefixes each
// violation, and emit maps the probe set onto the labels the space can
// produce, calling hit once per label.
func checkDomain(name string, domain []string, emit func(hit func(label, cause string))) []string {
	if len(domain) == 0 {
		return []string{name + ": empty domain"}
	}
	var msgs []string
	set := make(map[string]bool, len(domain))
	for _, lbl := range domain {
		if set[lbl] {
			msgs = append(msgs, fmt.Sprintf("%s: domain repeats %q", name, lbl))
		}
		set[lbl] = true
	}
	msgs = append(msgs, checkNumericOrder(name, domain)...)
	reached := make(map[string]bool, len(domain))
	emit(func(lbl, cause string) {
		reached[lbl] = true
		if !set[lbl] {
			msgs = append(msgs, fmt.Sprintf("%s: %s emits %q outside the domain", name, cause, lbl))
		}
	})
	for _, lbl := range domain {
		if !reached[lbl] {
			msgs = append(msgs, fmt.Sprintf("%s: domain label %q is unreachable over the probe set", name, lbl))
		}
	}
	return msgs
}

// checkScheme checks one input scheme over the probe set.
func checkScheme(in Input, probes []int64) []string {
	return checkDomain("scheme "+in.Scheme(), in.Domain(), func(hit func(string, string)) {
		for _, v := range probes {
			for _, lbl := range in.Partitions(v) {
				hit(lbl, fmt.Sprintf("Partitions(%d)", v))
			}
		}
	})
}

// checkOutput checks one spec's output space, with domain standing in for
// OutputDomain(spec) so tests can hand it a tampered order: success returns
// across the probe set and every declared errno in both return conventions
// (negative-return and zero-return).
func checkOutput(spec *sysspec.Spec, domain []string, probes []int64) []string {
	name := "output " + spec.Base
	msgs := checkOutputOrder(name, domain)
	return append(msgs, checkDomain(name, domain, func(hit func(string, string)) {
		out := func(ret int64, err sys.Errno) {
			hit(Output(spec.Ret, ret, err), fmt.Sprintf("Output(ret=%d, err=%s)", ret, err.Name()))
		}
		for _, v := range probes {
			out(v, sys.OK)
		}
		for _, e := range spec.Errnos {
			out(-int64(e), e)
			out(0, e)
		}
	})...)
}

// checkOutputOrder verifies the canonical output order: success labels form
// a prefix, errno labels follow in ascending name order.
func checkOutputOrder(name string, domain []string) []string {
	var msgs []string
	inErrnos := false
	var prevErrno string
	for _, lbl := range domain {
		if IsSuccess(lbl) {
			if inErrnos {
				msgs = append(msgs, fmt.Sprintf("%s: success label %q appears after errno labels", name, lbl))
			}
			continue
		}
		if inErrnos && lbl < prevErrno {
			msgs = append(msgs, fmt.Sprintf("%s: errno label %q out of order (after %q)", name, lbl, prevErrno))
		}
		inErrnos = true
		prevErrno = lbl
	}
	return msgs
}

// checkNumericOrder verifies the canonical numeric-domain order: any "<0"
// and "=0" boundary labels precede the power-of-two buckets, whose exponents
// strictly ascend. Labels may carry the "OK:" success prefix.
func checkNumericOrder(name string, domain []string) []string {
	var msgs []string
	prevExp := -1
	sawLog2 := false
	for _, lbl := range domain {
		bare := strings.TrimPrefix(lbl, LabelOK+":")
		if bare == LabelNegative || bare == LabelZero {
			if sawLog2 {
				msgs = append(msgs, fmt.Sprintf("%s: boundary label %q appears after power-of-two buckets", name, lbl))
			}
			continue
		}
		rest, ok := strings.CutPrefix(bare, "2^")
		if !ok {
			continue
		}
		exp, err := strconv.Atoi(rest)
		if err != nil {
			continue
		}
		if sawLog2 && exp <= prevExp {
			msgs = append(msgs, fmt.Sprintf("%s: power-of-two label %q out of order (after 2^%d)", name, lbl, prevExp))
		}
		sawLog2 = true
		prevExp = exp
	}
	return msgs
}

// TestEverySchemeDomainInvariants checks the domain contract for every
// partitioned scheme the sysspec tables reference.
func TestEverySchemeDomainInvariants(t *testing.T) {
	probes := domainProbeValues()
	checked := 0
	for _, name := range trackedSchemes() {
		in := ForScheme(name)
		if in == nil {
			continue // identifier schemes are deliberately unpartitioned
		}
		checked++
		for _, m := range checkScheme(in, probes) {
			t.Error(m)
		}
	}
	if checked == 0 {
		t.Fatal("no partitioned schemes found in the sysspec tables")
	}
}

// TestOutputDomainCoversOutput checks the output-domain contract for every
// base spec in both tables, for every RetKind.
func TestOutputDomainCoversOutput(t *testing.T) {
	probes := domainProbeValues()
	for _, tbl := range []*sysspec.Table{sysspec.NewTable(), sysspec.NewExtendedTable()} {
		for _, base := range tbl.Bases() {
			spec := tbl.Spec(base)
			for _, m := range checkOutput(spec, OutputDomain(spec), probes) {
				t.Error(m)
			}
		}
	}
}

// noNegativeBytesScheme reproduces the original BytesScheme.Domain bug: the
// "<0" partition is reachable but undeclared.
type noNegativeBytesScheme struct{ BytesScheme }

func (noNegativeBytesScheme) Domain() []string {
	out := []string{LabelZero}
	for k := 0; k <= MaxLog2; k++ {
		out = append(out, Log2Label(k))
	}
	return out
}

// deadBucketScheme declares the unreachable 2^63 bucket the bytes domain
// used to end with.
type deadBucketScheme struct{ BytesScheme }

func (deadBucketScheme) Domain() []string {
	return append(BytesScheme{}.Domain(), Log2Label(MaxLog2+1))
}

// noSeekEndScheme forgets SEEK_END, a label that never appears as a
// constant in Partitions: it is reachable only through the WhenceNames
// table.
type noSeekEndScheme struct{ whenceScheme }

func (noSeekEndScheme) Domain() []string {
	var out []string
	for _, n := range sys.WhenceNames {
		if n != "SEEK_END" {
			out = append(out, n)
		}
	}
	return append(out, LabelInvalid)
}

// requireMsg asserts that one of msgs contains want.
func requireMsg(t *testing.T, msgs []string, want string) {
	t.Helper()
	for _, m := range msgs {
		if strings.Contains(m, want) {
			return
		}
	}
	t.Errorf("no violation contains %q; have:\n%s", want, strings.Join(msgs, "\n"))
}

// TestDomainCheckerFlagsKnownBugs keeps the checker's teeth: each fake
// reproduces one bug class and must be reported.
func TestDomainCheckerFlagsKnownBugs(t *testing.T) {
	probes := domainProbeValues()
	t.Run("undeclared negative bucket", func(t *testing.T) {
		requireMsg(t, checkScheme(noNegativeBytesScheme{}, probes), `emits "<0" outside the domain`)
	})
	t.Run("undeclared table label", func(t *testing.T) {
		requireMsg(t, checkScheme(noSeekEndScheme{}, probes), `emits "SEEK_END" outside the domain`)
	})
	t.Run("dead 2^63 bucket", func(t *testing.T) {
		requireMsg(t, checkScheme(deadBucketScheme{}, probes), `domain label "2^63" is unreachable`)
	})
	t.Run("unsorted errnos", func(t *testing.T) {
		spec := &sysspec.Spec{
			Base:     "fake",
			Variants: []string{"fake"},
			Ret:      sysspec.RetZero,
			Errnos:   []sys.Errno{sys.EIO, sys.EACCES},
		}
		requireMsg(t, checkOutput(spec, OutputDomain(spec), probes), `errno label "EACCES" out of order (after "EIO")`)
	})
	t.Run("success after errno", func(t *testing.T) {
		spec := &sysspec.Spec{
			Base:     "fake",
			Variants: []string{"fake"},
			Ret:      sysspec.RetBytes,
			Errnos:   []sys.Errno{sys.EACCES, sys.EIO},
		}
		domain := OutputDomain(spec)
		if msgs := checkOutput(spec, domain, probes); len(msgs) != 0 {
			t.Fatalf("clean fake spec reported: %v", msgs)
		}
		// Move the "=0" success label behind the errnos.
		late := append(append([]string{domain[0]}, domain[2:]...), domain[1])
		msgs := checkOutput(spec, late, probes)
		requireMsg(t, msgs, `success label "OK:=0" appears after errno labels`)
		requireMsg(t, msgs, `boundary label "OK:=0" appears after power-of-two buckets`)
	})
}

// TestDomainCheckerPassesFixedTwins is the control for the known-bug fakes:
// the schemes and spec they were derived from, with the bug fixed, produce
// no violations.
func TestDomainCheckerPassesFixedTwins(t *testing.T) {
	probes := domainProbeValues()
	for _, in := range []Input{BytesScheme{}, whenceScheme{}} {
		for _, m := range checkScheme(in, probes) {
			t.Error(m)
		}
	}
	spec := &sysspec.Spec{
		Base:     "fake",
		Variants: []string{"fake"},
		Ret:      sysspec.RetZero,
		Errnos:   []sys.Errno{sys.EACCES, sys.EIO},
	}
	for _, m := range checkOutput(spec, OutputDomain(spec), probes) {
		t.Error(m)
	}
}
