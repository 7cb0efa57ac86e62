package coverage

// Fitness accessors for the evolutionary workload generator (internal/
// evolve). The evolve loop inspects coverage once per candidate program and
// once per generation; going through InputReport/Snapshot for that would
// build labelled report rows thousands of times per run. These accessors
// read the dense ordinal counters directly — no report construction, no
// label formatting — so a fitness probe costs one map lookup plus a slice
// walk.
//
// All of them are order-independent slice folds over per-ordinal state, so
// what they return never depends on map iteration order.

// InputCoveredOrdinals appends the domain ordinals with non-zero counts for
// one input space to scratch and returns the extended slice (ordinals index
// the scheme's Domain()). A never-observed space appends nothing. Callers
// reuse the returned slice's backing array across probes (pass scratch[:0]).
func (a *Analyzer) InputCoveredOrdinals(syscall, arg string, scratch []int) []int {
	c := a.inputs[argKey{syscall, arg}]
	if c == nil {
		return scratch
	}
	for ord, n := range c.dense {
		if n != 0 {
			scratch = append(scratch, ord)
		}
	}
	return scratch
}

// OutputCoveredOrdinals is InputCoveredOrdinals for an output space
// (ordinals index the spec's output Domain(); extra errnos are excluded).
func (a *Analyzer) OutputCoveredOrdinals(syscall string, scratch []int) []int {
	c := a.outputs[syscall]
	if c == nil {
		return scratch
	}
	for ord, n := range c.dense {
		if n != 0 {
			scratch = append(scratch, ord)
		}
	}
	return scratch
}

// InputFrequencies appends one input space's per-ordinal frequencies in
// domain order to scratch (for the TCD fitness component). A never-observed
// space appends nothing; ok reports whether the space exists.
func (a *Analyzer) InputFrequencies(syscall, arg string, scratch []int64) ([]int64, bool) {
	c := a.inputs[argKey{syscall, arg}]
	if c == nil {
		return scratch, false
	}
	return append(scratch, c.dense...), true
}

// Options returns the analyzer's (normalized) options: zero caps are
// replaced with their defaults, as NewAnalyzer stores them. Pooling code
// uses this to decide whether a recycled analyzer matches a request.
func (a *Analyzer) Options() Options { return a.opts }

// WithDefaults returns o with zero caps replaced by their defaults — the
// normalized form NewAnalyzer stores and Analyzer.Options returns, so
// comparisons against a live analyzer's options must normalize first.
func (o Options) WithDefaults() Options {
	if o.IdentifierCap <= 0 {
		o.IdentifierCap = 65536
	}
	if o.CombinationCap <= 0 {
		o.CombinationCap = 4096
	}
	return o
}
