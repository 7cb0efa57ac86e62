// Package coverage implements the IOCov analyzer: it consumes traced
// syscall events (live, or parsed from a trace file), applies variant
// merging and input/output partitioning, and produces the per-partition
// frequency counts behind every figure and table in the paper's evaluation,
// plus untested-partition reports and the Table 1 flag-combination
// statistics.
package coverage

import (
	"fmt"
	"slices"
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

	inputs    map[argKey]*argCounter
	outputs   map[string]*outputCounter
	idents    map[argKey]*identCounter
	combos    comboCounts
	bitCombos map[argKey]map[string]int64

	// compiled caches, per raw syscall name, everything Add needs on the
	// steady-state path: the resolved spec, the argument counters that apply
	// to this variant, and the output counter. A nil entry marks an
	// out-of-scope name so repeat offenders cost one map hit. scratch is the
	// reused ordinal buffer handed to partition.Input.
	compiled map[string]*compiledEntry
	scratch  []int

	// slots is a direct-mapped cache in front of compiled, indexed by
	// slotOf(name): the usual per-event lookup is one string compare, and
	// only a miss hashes the name. compiled stays the one source of truth;
	// a slot only ever holds a copy of one of its entries.
	slots [dispatchSlots]dispatchSlot

	// names lists, sorted, the syscall names with a counter; a snapshot
	// walks it instead of sorting the counter maps' keys.
	names []string

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
	out    *outputCounter
	isOpen bool
}

// dispatchSlots is the size of Analyzer.slots, a power of two. slotOf
// puts the 27 standard raw names and their variants in distinct slots
// (TestDispatchSlotsDistinct), so a standard stream misses only on the first
// sight of each name.
const dispatchSlots = 64

// dispatchSlot caches one compiled entry under its raw name. An empty slot
// has the empty name, which no lookup compares against: names shorter than
// two bytes bypass the slots.
type dispatchSlot struct {
	name string
	e    *compiledEntry
}

// compiledArg pairs a pre-resolved counter with its event key.
type compiledArg struct {
	counter  *argCounter
	key      string
	combo    bool // TrackCombinations && bitmap class
	comboKey argKey
}

type argKey struct {
	syscall string // base name, or raw name when merging is disabled
	arg     string
}

// argCounter holds the per-partition frequencies for one tracked argument,
// one dense counter per ordinal of the scheme's domain.
type argCounter struct {
	idx    partition.Input
	labels []string // Domain(), cached once
	order  []int    // partition.LabelOrder(labels), cached once
	dense  []int64  // per-ordinal frequencies, indexed like labels
}

// outputCounter holds the per-partition output frequencies for one syscall.
type outputCounter struct {
	out   *partition.OutputIndexer
	dense []int64 // per-ordinal frequencies, indexed like out.Domain()
	// extra counts errnos outside the spec's documented universe, which
	// have no ordinal; reports surface them in their Extra section.
	extra Counts
}

// identCounter tracks distinct identifier values (future-work extension).
type identCounter struct {
	values map[string]int64
	card   int64
	cap    int
}

// ComboStats is the Table 1 raw data: how many open calls combined k flags,
// over all calls and over calls whose access mode is O_RDONLY. Only the
// sizes with a non-zero count have a key.
type ComboStats struct {
	// All[k] counts opens using exactly k flags together.
	All map[int]int64
	// Rdonly[k] restricts All to opens whose access mode is O_RDONLY.
	Rdonly map[int]int64
}

// comboCounts is the analyzer's Table 1 state, ComboStats as arrays indexed
// by the combination size k (partition.FlagComboSize never exceeds
// MaxFlagComboSize). Every reader builds its maps from these arrays.
type comboCounts struct {
	All, Rdonly comboArray
}

// comboArray holds one Table 1 row's counts, indexed by combination size.
type comboArray [partition.MaxFlagComboSize + 1]int64

// stats returns the counts as ComboStats maps, holding only non-zero keys.
func (c *comboCounts) stats() ComboStats {
	s := ComboStats{All: make(map[int]int64), Rdonly: make(map[int]int64)}
	for k := range c.All {
		if c.All[k] != 0 {
			s.All[k] = c.All[k]
		}
		if c.Rdonly[k] != 0 {
			s.Rdonly[k] = c.Rdonly[k]
		}
	}
	return s
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

	// schemeIndexers caches the per-scheme indexer, its label domain and
	// the domain's label order, built once.
	schemeIndexers sync.Map // scheme string -> schemeIndexer
)

type schemeIndexer struct {
	idx    partition.Input
	labels []string
	order  []int
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
	idx := partition.ForScheme(scheme)
	labels := idx.Domain()
	si, _ := schemeIndexers.LoadOrStore(scheme, schemeIndexer{idx: idx, labels: labels, order: partition.LabelOrder(labels)})
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
		inputs:    make(map[argKey]*argCounter),
		outputs:   make(map[string]*outputCounter),
		idents:    make(map[argKey]*identCounter),
		bitCombos: make(map[argKey]map[string]int64),
		compiled:  make(map[string]*compiledEntry),
		// Largest per-value ordinal fanout is an open flags word naming
		// every flag; 32 keeps PartitionIndices from ever growing it.
		scratch: make([]int, 0, 32),
	}
}

// Emit implements trace.Sink.
func (a *Analyzer) Emit(ev trace.Event) { a.add(&ev) }

// Add analyzes one event. Events for syscalls outside the 27-syscall scope
// are counted as skipped and otherwise ignored.
//
// The steady-state path is one dispatch-slot compare followed by dense
// ordinal arithmetic: no name hashing, no label formatting, no []string
// partitions, no string-keyed counter maps. The first event of each raw
// syscall name pays the spec lookup and ArgAppliesTo walk once, in compile.
func (a *Analyzer) Add(ev trace.Event) { a.add(&ev) }

// add is the body of Add and Emit. It takes the event by pointer, so an
// event that reaches the analyzer through Emit is not copied again.
func (a *Analyzer) add(ev *trace.Event) {
	a.addCompiled(a.lookup(ev.Name), ev)
}

// lookup returns the compiled entry for a raw syscall name (nil when out of
// scope). A slot hit costs one string compare; a miss takes the compiled
// map, compiling on first sight, and refills the slot.
func (a *Analyzer) lookup(name string) *compiledEntry {
	if len(name) < 2 {
		return a.compiledFor(name)
	}
	s := &a.slots[slotOf(name)]
	if s.name != name {
		*s = dispatchSlot{name: name, e: a.compiledFor(name)}
	}
	return s.e
}

// slotOf maps a name of at least two bytes to its dispatch slot from its
// length and its first, second and last bytes.
func slotOf(name string) int {
	n := len(name)
	return (n*7 + int(name[0])*5 + int(name[1])*3 + int(name[n-1])*4) & (dispatchSlots - 1)
}

// compiledFor is the slots' fallback: the compiled map, compiling the entry
// on first sight.
func (a *Analyzer) compiledFor(name string) *compiledEntry {
	e, seen := a.compiled[name]
	if !seen {
		e = a.compile(name)
	}
	return e
}

// addCompiled is the shared per-event body behind Add and Batch.Add: the
// dispatch entry is already resolved (nil marks an out-of-scope syscall),
// and the event arrives by pointer so the batch path never copies it.
//
// Every ord is in bounds: dense counters are allocated len(Domain()) long
// and every ord comes from PartitionIndices/Index over that same domain
// (partition's domain-invariant tests keep every ordinal inside Domain()).
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
}

// addExtra counts an errno outside the documented universe: no ordinal, so
// it is counted by label and surfaces in the report's Extra section. Cold by
// construction — the documented universe covers every errno the simulated
// kernel emits, so reaching here means a foreign trace — and Errno.Name can
// format, so the hot path must not inline it.
func (oc *outputCounter) addExtra(ev *trace.Event) {
	*oc.extra.at(ev.Err.Name())++
}

// compile resolves everything Add needs for one raw syscall name and caches
// it. Out-of-scope names cache a nil entry.
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
			counter:  a.inputFor(name, arg),
			key:      arg.Key,
			combo:    a.opts.TrackCombinations && arg.Class == sysspec.Bitmap,
			comboKey: argKey{name, arg.Name},
		})
	}
	e.out = a.outputFor(name, spec)
	a.compiled[raw] = e
	return e
}

// AddAll analyzes a slice of events.
func (a *Analyzer) AddAll(events []trace.Event) {
	for i := range events {
		a.add(&events[i])
	}
}

// inputFor returns (creating on demand) the input counter for one argument.
func (a *Analyzer) inputFor(name string, arg *sysspec.ArgSpec) *argCounter {
	k := argKey{name, arg.Name}
	c := a.inputs[k]
	if c == nil {
		si := sharedSchemeIndexer(arg.Scheme)
		c = &argCounter{idx: si.idx, labels: si.labels, order: si.order, dense: a.denseFor(len(si.labels))}
		a.inputs[k] = c
		a.addName(name)
	}
	return c
}

// addName records that name has a counter, keeping names sorted.
func (a *Analyzer) addName(name string) {
	if i, found := slices.BinarySearch(a.names, name); !found {
		a.names = slices.Insert(a.names, i, name)
	}
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

// outputFor returns (creating on demand) the output counter for name.
func (a *Analyzer) outputFor(name string, spec *sysspec.Spec) *outputCounter {
	oc := a.outputs[name]
	if oc == nil {
		out := sharedOutputIndexer(spec)
		oc = &outputCounter{out: out, dense: a.denseFor(len(out.Domain()))}
		a.outputs[name] = oc
		a.addName(name)
	}
	return oc
}

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
func (a *Analyzer) PartitionHits() map[string]int64 {
	out := make(map[string]int64)
	for k, c := range a.inputs {
		for _, n := range c.dense {
			out[k.syscall] += n
		}
	}
	for name, c := range a.outputs {
		for _, n := range c.dense {
			out[name] += n
		}
		for _, r := range c.extra {
			out[name] += r.Count
		}
	}
	return out
}

// Analyzed returns the number of in-scope events processed.
func (a *Analyzer) Analyzed() int64 { return a.analyzed }

// Skipped returns the number of out-of-scope events ignored.
func (a *Analyzer) Skipped() int64 { return a.skipped }

// Combos returns the flag-combination statistics (Table 1 raw data).
func (a *Analyzer) Combos() ComboStats { return a.combos.stats() }

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
	return append(make([]string, 0, len(a.names)), a.names...)
}
