// Package coverage implements the IOCov analyzer: it consumes traced
// syscall events (live, or parsed from a trace file), applies variant
// merging and input/output partitioning, and produces the per-partition
// frequency counts behind every figure and table in the paper's evaluation,
// plus untested-partition reports and the Table 1 flag-combination
// statistics.
package coverage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"iocov/internal/partition"
	"iocov/internal/sysspec"
	"iocov/internal/trace"
)

// Options configures an Analyzer.
type Options struct {
	// MergeVariants folds syscall variants into their base syscall
	// (openat -> open). The paper's IOCov always merges; disabling it is
	// the ablation knob.
	MergeVariants bool
	// TrackIdentifiers additionally counts distinct identifier-argument
	// values (paths, fds), a first cut of the paper's future-work item.
	TrackIdentifiers bool
	// IdentifierCap bounds the distinct identifier values retained per
	// argument (0 means 65536); beyond it only the cardinality grows.
	IdentifierCap int
	// TrackCombinations treats each distinct bitmap value (full flag
	// combination) as its own partition, the paper's future-work metric
	// enhancement ("support bit combinations").
	TrackCombinations bool
	// CombinationCap bounds the distinct combinations retained per
	// argument (0 means 4096).
	CombinationCap int
	// ExtendedSyscalls augments the 27-syscall table with the ten
	// future-work syscalls (unlink, rename, fsync, stat, ...).
	ExtendedSyscalls bool
}

// DefaultOptions returns the paper's configuration: variant merging on,
// identifier tracking off.
func DefaultOptions() Options { return Options{MergeVariants: true} }

// Analyzer accumulates input and output coverage. It implements trace.Sink,
// so it can sit directly behind the kernel or a trace filter. An Analyzer is
// not safe for concurrent use: run one analyzer per pipeline, and combine
// sharded pipelines afterwards with Merge (the shard-and-merge pattern used
// by harness.RunParallel).
type Analyzer struct {
	table *sysspec.Table
	opts  Options

	inputs    map[argKey]*ArgCounter
	outputs   map[string]*OutputCounter
	idents    map[argKey]*identCounter
	combos    ComboStats
	bitCombos map[argKey]map[string]int64

	// compiled caches, per raw syscall name, everything Add needs on the
	// steady-state path: the resolved spec, the argument counters that apply
	// to this variant, and the output counter. A nil entry marks an
	// out-of-scope name so repeat offenders cost one map hit. scratch is the
	// reused ordinal buffer handed to partition.Indexer.
	compiled map[string]*compiledEntry
	scratch  []int

	// freeDense holds zeroed dense counter slices retired by Reset, keyed
	// by length, so a pooled analyzer's recompile step reuses its previous
	// life's counter storage instead of allocating it again.
	freeDense map[int][][]int64

	analyzed int64
	skipped  int64
}

// compiledEntry is the per-raw-name dispatch record built on first sight.
type compiledEntry struct {
	name   string // merged name (or the raw name when merging is disabled)
	spec   *sysspec.Spec
	args   []compiledArg
	idents []*sysspec.ArgSpec
	out    *OutputCounter
	isOpen bool
}

// compiledArg pairs a pre-resolved counter with its event key.
type compiledArg struct {
	counter  *ArgCounter
	key      string
	combo    bool // TrackCombinations && bitmap class
	comboKey argKey
}

type argKey struct {
	syscall string // base name, or raw name when merging is disabled
	arg     string
}

// ArgCounter holds the per-partition frequencies for one tracked argument.
type ArgCounter struct {
	// Syscall is the (merged) syscall name.
	Syscall string
	// Arg is the argument name from the spec.
	Arg string
	// Class is the paper's argument class.
	Class sysspec.ArgClass
	// Scheme names the partitioning scheme.
	Scheme string
	// Counts maps partition label to observed frequency. It is a lazily
	// materialized view over the dense ordinal counters, rebuilt by the
	// Analyzer.Input accessor (and by Count) after new events arrive; the
	// hot path itself never touches it.
	Counts map[string]int64

	part   partition.Input
	idx    partition.Indexer
	labels []string // Domain(), cached once
	dense  []int64  // per-ordinal frequencies, indexed like labels
	dirty  bool     // dense changed since Counts was last materialized
}

// OutputCounter holds per-partition output frequencies for one syscall.
type OutputCounter struct {
	// Syscall is the (merged) syscall name.
	Syscall string
	// Counts maps output partition label to frequency. Like
	// ArgCounter.Counts it is a lazily materialized view (see
	// Analyzer.Output).
	Counts map[string]int64

	spec  *sysspec.Spec
	out   *partition.OutputIndexer
	dense []int64
	// extra counts errnos outside the spec's documented universe, which
	// have no ordinal; reports surface them in their Extra section.
	extra map[string]int64
	dirty bool
}

// identCounter tracks distinct identifier values (future-work extension).
type identCounter struct {
	values map[string]int64
	card   int64
	cap    int
}

// ComboStats is the Table 1 raw data: how many open calls combined k flags,
// over all calls and over calls whose access mode is O_RDONLY.
type ComboStats struct {
	// All[k] counts opens using exactly k flags together.
	All map[int]int64
	// Rdonly[k] restricts All to opens whose access mode is O_RDONLY.
	Rdonly map[int]int64
}

// Shared immutable lookup structures. A syscall table, an output indexer,
// and a scheme indexer are all read-only after construction, but they used
// to be rebuilt for every analyzer — a real cost for the ingest daemon,
// which creates one analyzer per session and paid the spec compilation
// again on each stream. Built once, shared by every analyzer.
var (
	stdTableOnce, extTableOnce sync.Once
	stdTable, extTable         *sysspec.Table

	// outputIndexers caches compiled output domains per spec (the spec
	// pointers are themselves process-wide statics from sysspec).
	outputIndexers sync.Map // *sysspec.Spec -> *partition.OutputIndexer

	// schemeIndexers caches the per-scheme indexer and its materialized
	// label domain.
	schemeIndexers sync.Map // scheme string -> schemeIndexer
)

type schemeIndexer struct {
	idx    partition.Indexer
	labels []string
}

func sharedTable(extended bool) *sysspec.Table {
	if extended {
		extTableOnce.Do(func() { extTable = sysspec.NewExtendedTable() })
		return extTable
	}
	stdTableOnce.Do(func() { stdTable = sysspec.NewTable() })
	return stdTable
}

func sharedOutputIndexer(spec *sysspec.Spec) *partition.OutputIndexer {
	if x, ok := outputIndexers.Load(spec); ok {
		return x.(*partition.OutputIndexer)
	}
	x, _ := outputIndexers.LoadOrStore(spec, partition.NewOutputIndexer(spec))
	return x.(*partition.OutputIndexer)
}

func sharedSchemeIndexer(scheme string) schemeIndexer {
	if si, ok := schemeIndexers.Load(scheme); ok {
		return si.(schemeIndexer)
	}
	idx := partition.IndexerForScheme(scheme)
	si, _ := schemeIndexers.LoadOrStore(scheme, schemeIndexer{idx: idx, labels: idx.Domain()})
	return si.(schemeIndexer)
}

// NewAnalyzer builds an analyzer over the standard syscall table (or the
// extended one, with Options.ExtendedSyscalls).
func NewAnalyzer(opts Options) *Analyzer {
	opts = opts.WithDefaults()
	table := sharedTable(opts.ExtendedSyscalls)
	return &Analyzer{
		table:     table,
		opts:      opts,
		inputs:    make(map[argKey]*ArgCounter),
		outputs:   make(map[string]*OutputCounter),
		idents:    make(map[argKey]*identCounter),
		combos:    ComboStats{All: make(map[int]int64), Rdonly: make(map[int]int64)},
		bitCombos: make(map[argKey]map[string]int64),
		compiled:  make(map[string]*compiledEntry),
		// Largest per-value ordinal fanout is an open flags word naming
		// every flag; 32 keeps PartitionIndices from ever growing it.
		scratch: make([]int, 0, 32),
	}
}

// Emit implements trace.Sink.
//
//iocov:hotpath
func (a *Analyzer) Emit(ev trace.Event) { a.Add(ev) }

// Add analyzes one event. Events for syscalls outside the 27-syscall scope
// are counted as skipped and otherwise ignored.
//
// The steady-state path is one compiled-entry map hit followed by dense
// ordinal arithmetic: no label formatting, no []string partitions, no
// string-keyed counter maps. The first event of each raw syscall name pays
// the spec lookup and ArgAppliesTo walk once, in compile.
//
//iocov:hotpath
func (a *Analyzer) Add(ev trace.Event) {
	e, seen := a.compiled[ev.Name]
	if !seen {
		e = a.compile(ev.Name)
	}
	a.addCompiled(e, &ev)
}

// addCompiled is the shared per-event body behind Add and Batch.Add: the
// dispatch entry is already resolved (nil marks an out-of-scope syscall),
// and the event arrives by pointer so the batch path never copies it.
//
// Every ord is in bounds: dense counters are allocated len(Domain()) long
// and every ord comes from PartitionIndices/Index over that same domain
// (partition's domain-invariant tests keep Partitions inside Domain()).
//
//iocov:hotpath
func (a *Analyzer) addCompiled(e *compiledEntry, ev *trace.Event) {
	if e == nil {
		a.skipped++
		return
	}
	a.analyzed++

	for i := range e.args {
		ca := &e.args[i]
		v, ok := ev.Arg(ca.key)
		if !ok {
			continue
		}
		c := ca.counter
		idxs := c.idx.PartitionIndices(v, a.scratch[:0])
		a.scratch = idxs
		for _, ord := range idxs {
			c.dense[ord]++
		}
		c.dirty = true
		if ca.combo {
			a.addCombination(ca.comboKey, c.labels, idxs)
		}
	}

	if len(e.idents) > 0 {
		for _, arg := range e.idents {
			a.addIdentifier(e.name, arg, ev)
		}
	}

	// Flag-combination statistics for the open family.
	if e.isOpen {
		if flags, ok := ev.Arg("flags"); ok {
			k := partition.FlagComboSize(flags)
			a.combos.All[k]++
			if partition.HasRdonly(flags) {
				a.combos.Rdonly[k]++
			}
		}
	}

	oc := e.out
	if ord, ok := oc.out.Index(ev.Ret, ev.Err); ok {
		oc.dense[ord]++
	} else {
		oc.addExtra(ev)
	}
	oc.dirty = true
}

// addExtra counts an errno outside the documented universe: no ordinal, so
// it is counted by label and surfaces in the report's Extra section. Cold by
// construction — the documented universe covers every errno the simulated
// kernel emits, so reaching here means a foreign trace — and Errno.Name can
// format, so the hot path must not inline it.
//
//iocov:coldpath
func (oc *OutputCounter) addExtra(ev *trace.Event) {
	if oc.extra == nil {
		oc.extra = make(map[string]int64)
	}
	oc.extra[ev.Err.Name()]++
}

// compile resolves everything Add needs for one raw syscall name and caches
// it. Out-of-scope names cache a nil entry.
//
//iocov:coldpath
func (a *Analyzer) compile(raw string) *compiledEntry {
	spec := a.table.Base(raw)
	if spec == nil {
		a.compiled[raw] = nil
		return nil
	}
	name := spec.Base
	if !a.opts.MergeVariants {
		name = raw
	}
	e := &compiledEntry{name: name, spec: spec, isOpen: spec.Base == "open"}
	for i := range spec.Args {
		arg := &spec.Args[i]
		if !arg.ArgAppliesTo(raw) {
			continue
		}
		if arg.Class == sysspec.Identifier {
			if a.opts.TrackIdentifiers {
				e.idents = append(e.idents, arg)
			}
			continue
		}
		e.args = append(e.args, compiledArg{
			counter:  a.argCounter(name, arg),
			key:      arg.Key,
			combo:    a.opts.TrackCombinations && arg.Class == sysspec.Bitmap,
			comboKey: argKey{name, arg.Name},
		})
	}
	e.out = a.outputCounter(name, spec)
	a.compiled[raw] = e
	return e
}

// AddAll analyzes a slice of events.
func (a *Analyzer) AddAll(events []trace.Event) {
	for _, ev := range events {
		a.Add(ev)
	}
}

func (a *Analyzer) argCounter(name string, arg *sysspec.ArgSpec) *ArgCounter {
	k := argKey{name, arg.Name}
	c := a.inputs[k]
	if c == nil {
		si := sharedSchemeIndexer(arg.Scheme)
		c = &ArgCounter{
			Syscall: name,
			Arg:     arg.Name,
			Class:   arg.Class,
			Scheme:  arg.Scheme,
			part:    si.idx,
			idx:     si.idx,
			labels:  si.labels,
			dense:   a.denseFor(len(si.labels)),
		}
		a.inputs[k] = c
	}
	return c
}

// denseFor returns a zeroed dense counter slice of the given length,
// reusing one retired by Reset when available.
func (a *Analyzer) denseFor(n int) []int64 {
	if free := a.freeDense[n]; len(free) > 0 {
		d := free[len(free)-1]
		a.freeDense[n] = free[:len(free)-1]
		return d
	}
	return make([]int64, n)
}

// outputCounter returns (creating on demand) the output counter for name.
func (a *Analyzer) outputCounter(name string, spec *sysspec.Spec) *OutputCounter {
	oc := a.outputs[name]
	if oc == nil {
		out := sharedOutputIndexer(spec)
		oc = &OutputCounter{
			Syscall: name,
			spec:    spec,
			out:     out,
			dense:   a.denseFor(len(out.Domain())),
		}
		a.outputs[name] = oc
	}
	return oc
}

// materialize rebuilds the public Counts view from the dense counters when
// new events have arrived since the last build. Only labels with non-zero
// counts appear, matching the map the per-event path used to maintain.
func (c *ArgCounter) materialize() {
	if !c.dirty && c.Counts != nil {
		return
	}
	m := make(map[string]int64)
	for ord, n := range c.dense {
		if n != 0 {
			m[c.labels[ord]] = n
		}
	}
	c.Counts = m
	c.dirty = false
}

func (c *OutputCounter) materialize() {
	if !c.dirty && c.Counts != nil {
		return
	}
	domain := c.out.Domain()
	m := make(map[string]int64)
	for ord, n := range c.dense {
		if n != 0 {
			m[domain[ord]] = n
		}
	}
	for label, n := range c.extra {
		m[label] += n
	}
	c.Counts = m
	c.dirty = false
}

//iocov:coldpath
func (a *Analyzer) addIdentifier(name string, arg *sysspec.ArgSpec, ev *trace.Event) {
	k := argKey{name, arg.Name}
	c := a.idents[k]
	if c == nil {
		c = &identCounter{values: make(map[string]int64), cap: a.opts.IdentifierCap}
		a.idents[k] = c
	}
	var v string
	if s, ok := ev.Str(arg.Key); ok {
		v = s
	} else if n, ok := ev.Arg(arg.Key); ok {
		v = fmt.Sprintf("%d", n)
	} else {
		return
	}
	if _, seen := c.values[v]; seen {
		c.values[v]++
		return
	}
	c.card++
	if len(c.values) < c.cap {
		c.values[v] = 1
	}
}

// addCombination counts a full bitmap combination as its own partition
// (future-work metric: bit combinations). The label is the joined flag
// names in partition order, e.g. "O_RDWR|O_CREAT|O_TRUNC", rebuilt here
// from the ordinals the hot path produced. Cold: only runs when the
// BitCombos option is on, which the paper-replication configs leave off.
//
//iocov:coldpath
func (a *Analyzer) addCombination(k argKey, labels []string, idxs []int) {
	m := a.bitCombos[k]
	if m == nil {
		m = make(map[string]int64)
		a.bitCombos[k] = m
	}
	var b strings.Builder
	for i, ord := range idxs {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(labels[ord])
	}
	label := b.String()
	if _, seen := m[label]; !seen && len(m) >= a.opts.CombinationCap {
		return
	}
	m[label]++
}

// Combinations returns the distinct bitmap-combination counts recorded for
// an argument (nil unless TrackCombinations was set), sorted by descending
// frequency then label.
//
//iocov:deterministic
func (a *Analyzer) Combinations(syscall, arg string) []Row {
	m := a.bitCombos[argKey{syscall, arg}]
	if m == nil {
		return nil
	}
	rows := make([]Row, 0, len(m))
	for label, n := range m {
		rows = append(rows, Row{Label: label, Count: n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Label < rows[j].Label
	})
	return rows
}

// DistinctCombinations returns how many distinct bitmap combinations were
// observed for an argument.
func (a *Analyzer) DistinctCombinations(syscall, arg string) int {
	return len(a.bitCombos[argKey{syscall, arg}])
}

// PartitionHits returns, per (merged) syscall name, the total number of
// partition-counter increments recorded: every input-partition hit plus
// every output-partition hit, including errnos outside the documented
// universe. The aggregation daemon exports these as its per-syscall
// Prometheus counters.
//
//iocov:deterministic
func (a *Analyzer) PartitionHits() map[string]int64 {
	out := make(map[string]int64)
	for k, c := range a.inputs {
		out[k.syscall] += c.Total()
	}
	for name, c := range a.outputs {
		var t int64
		for _, n := range c.dense {
			t += n
		}
		for _, n := range c.extra {
			t += n
		}
		out[name] += t
	}
	return out
}

// Analyzed returns the number of in-scope events processed.
func (a *Analyzer) Analyzed() int64 { return a.analyzed }

// Skipped returns the number of out-of-scope events ignored.
func (a *Analyzer) Skipped() int64 { return a.skipped }

// Combos returns the flag-combination statistics (Table 1 raw data).
func (a *Analyzer) Combos() ComboStats { return a.combos }

// IdentifierCardinality returns the number of distinct values observed for
// an identifier argument (0 unless TrackIdentifiers was set).
func (a *Analyzer) IdentifierCardinality(syscall, arg string) int64 {
	c := a.idents[argKey{syscall, arg}]
	if c == nil {
		return 0
	}
	return c.card
}

// Syscalls returns the syscall names with any recorded coverage, sorted.
func (a *Analyzer) Syscalls() []string {
	seen := make(map[string]bool)
	for k := range a.inputs {
		seen[k.syscall] = true
	}
	for name := range a.outputs {
		seen[name] = true
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Input returns the counter for one argument, or nil when nothing was
// recorded for it. The returned counter's Counts view reflects every event
// added so far.
func (a *Analyzer) Input(syscall, arg string) *ArgCounter {
	c := a.inputs[argKey{syscall, arg}]
	if c != nil {
		c.materialize()
	}
	return c
}

// Output returns the output counter for a syscall, or nil. The returned
// counter's Counts view reflects every event added so far.
func (a *Analyzer) Output(syscall string) *OutputCounter {
	c := a.outputs[syscall]
	if c != nil {
		c.materialize()
	}
	return c
}

// Count returns the frequency of one input partition (0 when untested).
func (c *ArgCounter) Count(label string) int64 {
	c.materialize()
	return c.Counts[label]
}

// Domain returns the argument's full partition domain.
func (c *ArgCounter) Domain() []string { return c.labels }

// Total returns the sum of all partition counts.
func (c *ArgCounter) Total() int64 {
	var t int64
	for _, n := range c.dense {
		t += n
	}
	return t
}

// Count returns the frequency of one output partition.
func (c *OutputCounter) Count(label string) int64 {
	c.materialize()
	return c.Counts[label]
}

// Domain returns the syscall's full output partition domain.
func (c *OutputCounter) Domain() []string { return c.out.Domain() }

// SuccessCount sums the success partitions.
func (c *OutputCounter) SuccessCount() int64 {
	var t int64
	for _, n := range c.dense[:c.out.SuccessOrdinals()] {
		t += n
	}
	return t
}

// ErrorCount sums the failure partitions. Extra (undocumented) errnos are
// failures by construction: every success partition has an ordinal.
func (c *OutputCounter) ErrorCount() int64 {
	var t int64
	for _, n := range c.dense[c.out.SuccessOrdinals():] {
		t += n
	}
	for _, n := range c.extra {
		t += n
	}
	return t
}
