package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"sort"
	"strings"
)

// This file is the value-analysis layer of the lint engine: def-use chains
// plus a constant/interval-propagation lattice solved over the CFG
// (cfg.go) by the worklist engine (dataflow.go), with branch refinement
// along the Cond/TrueSucc/FalseSucc edges and interprocedural return
// summaries seeded through the call graph (callgraph.go). boundcheck uses
// it to prove hot-path index expressions in-bounds, and domaincheck to
// prove indexed label-table returns stay inside declared domains.
//
// The lattice tracks, per function:
//
//   - an integer interval [lo, hi] (either bound may be infinite) for every
//     local, parameter, and receiver-field reference that is not address-
//     taken or captured by a closure;
//   - symbolic length relations "x <= len(s) + delta" connecting an integer
//     reference to a slice/string reference, which is how `i < len(s)` and
//     `uint(id) < uint(len(dict))` guards prove indexes whose slice length
//     is unknown;
//
// joined with pointwise interval union / relation intersection, and widened
// at loop heads by snapping growing bounds to the function's constant
// landmarks (dataflow.go's widener hook), so counting loops converge to
// their true guard-derived bounds instead of iterating forever.
//
// Soundness choices: receiver-field facts die at every function call (any
// callee may mutate the receiver); facts about one field reference kill
// sibling references to the same field through other bases (aliasing);
// address-taken and closure-captured variables are never tracked; unsigned
// 64-bit values get an infinite upper bound (they exceed int64); `int` is
// modeled as 64-bit, matching every platform this repository targets.

// ---------------------------------------------------------------------------
// Intervals

// interval is a signed integer range [lo, hi]; loInf/hiInf mark the bound
// as -inf/+inf (the lo/hi fields are then ignored). lo > hi with finite
// bounds is the empty interval (bottom: dead code / infeasible path).
type interval struct {
	lo, hi       int64
	loInf, hiInf bool
}

func ivTop() interval               { return interval{loInf: true, hiInf: true} }
func ivConst(c int64) interval      { return interval{lo: c, hi: c} }
func ivRange(lo, hi int64) interval { return interval{lo: lo, hi: hi} }
func ivAtLeast(lo int64) interval   { return interval{lo: lo, hiInf: true} }
func (iv interval) isTop() bool     { return iv.loInf && iv.hiInf }
func (iv interval) empty() bool     { return !iv.loInf && !iv.hiInf && iv.lo > iv.hi }
func (iv interval) isConst() (int64, bool) {
	if !iv.loInf && !iv.hiInf && iv.lo == iv.hi {
		return iv.lo, true
	}
	return 0, false
}

// contains reports whether every value of o lies in iv.
func (iv interval) contains(o interval) bool {
	if o.empty() {
		return true
	}
	if iv.empty() {
		return false
	}
	loOK := iv.loInf || (!o.loInf && o.lo >= iv.lo)
	hiOK := iv.hiInf || (!o.hiInf && o.hi <= iv.hi)
	return loOK && hiOK
}

func (iv interval) join(o interval) interval {
	if iv.empty() {
		return o
	}
	if o.empty() {
		return iv
	}
	out := interval{}
	if iv.loInf || o.loInf {
		out.loInf = true
	} else {
		out.lo = min64(iv.lo, o.lo)
	}
	if iv.hiInf || o.hiInf {
		out.hiInf = true
	} else {
		out.hi = max64(iv.hi, o.hi)
	}
	return out
}

func (iv interval) meet(o interval) interval {
	if iv.empty() || o.empty() {
		return interval{lo: 1, hi: 0}
	}
	out := interval{}
	switch {
	case iv.loInf && o.loInf:
		out.loInf = true
	case iv.loInf:
		out.lo = o.lo
	case o.loInf:
		out.lo = iv.lo
	default:
		out.lo = max64(iv.lo, o.lo)
	}
	switch {
	case iv.hiInf && o.hiInf:
		out.hiInf = true
	case iv.hiInf:
		out.hi = o.hi
	case o.hiInf:
		out.hi = iv.hi
	default:
		out.hi = min64(iv.hi, o.hi)
	}
	return out
}

// addConst shifts both bounds by c, saturating to infinity on overflow.
func (iv interval) addConst(c int64) interval {
	out := iv
	if !iv.loInf {
		if v, ok := satAdd(iv.lo, c); ok {
			out.lo = v
		} else {
			out.loInf = true
		}
	}
	if !iv.hiInf {
		if v, ok := satAdd(iv.hi, c); ok {
			out.hi = v
		} else {
			out.hiInf = true
		}
	}
	return out
}

// add is full interval addition.
func (iv interval) add(o interval) interval {
	if iv.empty() || o.empty() {
		return interval{lo: 1, hi: 0}
	}
	out := interval{loInf: iv.loInf || o.loInf, hiInf: iv.hiInf || o.hiInf}
	if !out.loInf {
		if v, ok := satAdd(iv.lo, o.lo); ok {
			out.lo = v
		} else {
			out.loInf = true
		}
	}
	if !out.hiInf {
		if v, ok := satAdd(iv.hi, o.hi); ok {
			out.hi = v
		} else {
			out.hiInf = true
		}
	}
	return out
}

func (iv interval) neg() interval {
	out := interval{loInf: iv.hiInf, hiInf: iv.loInf}
	if !out.loInf {
		if iv.hi == math.MinInt64 {
			out.loInf = true
		} else {
			out.lo = -iv.hi
		}
	}
	if !out.hiInf {
		if iv.lo == math.MinInt64 {
			out.hiInf = true
		} else {
			out.hi = -iv.lo
		}
	}
	return out
}

func (iv interval) String() string {
	if iv.empty() {
		return "[empty]"
	}
	lo, hi := "-inf", "+inf"
	if !iv.loInf {
		lo = fmt.Sprintf("%d", iv.lo)
	}
	if !iv.hiInf {
		hi = fmt.Sprintf("%d", iv.hi)
	}
	return fmt.Sprintf("[%s,%s]", lo, hi)
}

func satAdd(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// typeInterval is the coarsest sound interval for a Go type. Unsigned
// 64-bit kinds get [0, +inf) because their values exceed the signed model;
// int is modeled as 64 bits.
func typeInterval(t types.Type) interval {
	if t == nil {
		return ivTop()
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return ivTop()
	}
	switch b.Kind() {
	case types.Int8:
		return ivRange(-128, 127)
	case types.Int16:
		return ivRange(math.MinInt16, math.MaxInt16)
	case types.Int32:
		return ivRange(math.MinInt32, math.MaxInt32)
	case types.Int, types.Int64, types.UntypedInt:
		return ivRange(math.MinInt64, math.MaxInt64)
	case types.Uint8:
		return ivRange(0, math.MaxUint8)
	case types.Uint16:
		return ivRange(0, math.MaxUint16)
	case types.Uint32:
		return ivRange(0, math.MaxUint32)
	case types.Uint, types.Uint64, types.Uintptr:
		return ivAtLeast(0)
	default:
		return ivTop()
	}
}

// ---------------------------------------------------------------------------
// References and facts

// vref names one trackable storage location: a plain variable (field nil)
// or base.field where base is a local/parameter/receiver variable.
type vref struct {
	base  types.Object
	field types.Object
}

func (r vref) String() string {
	if r.field != nil {
		return r.base.Name() + "." + r.field.Name()
	}
	return r.base.Name()
}

// relKey is one symbolic length relation: x <= len(s) + delta.
type relKey struct {
	x, s vref
}

// valueFact is the lattice element: intervals per reference, symbolic
// length relations, and length intervals (what is known about len(s)
// itself, e.g. after `if len(v) > 0`). A reference absent from vals is at
// its type interval; one absent from lens has length [0,+inf).
type valueFact struct {
	an   *funcAnalysis
	vals map[vref]interval
	rels map[relKey]int64
	lens map[vref]interval
}

func newValueFact(an *funcAnalysis) *valueFact {
	return &valueFact{
		an:   an,
		vals: map[vref]interval{},
		rels: map[relKey]int64{},
		lens: map[vref]interval{},
	}
}

// anyLen is the absent-key length fact.
func anyLen() interval { return ivAtLeast(0) }

// Join implements Fact: pointwise interval union over shared keys (a key
// missing on one side is at its type interval there, so the union is the
// type interval: drop it), relation intersection keeping the weaker delta.
func (f *valueFact) Join(other Fact) Fact {
	o := other.(*valueFact)
	out := newValueFact(f.an)
	for r, a := range f.vals {
		if b, ok := o.vals[r]; ok {
			j := a.join(b)
			if !j.contains(f.an.refTypeInterval(r)) {
				out.vals[r] = j
			}
		}
	}
	for k, d1 := range f.rels {
		if d2, ok := o.rels[k]; ok {
			out.rels[k] = max64(d1, d2)
		}
	}
	for r, a := range f.lens {
		if b, ok := o.lens[r]; ok {
			j := a.join(b)
			if !j.contains(anyLen()) {
				out.lens[r] = j
			}
		}
	}
	return out
}

// Equal implements Fact.
func (f *valueFact) Equal(other Fact) bool {
	o := other.(*valueFact)
	if len(f.vals) != len(o.vals) || len(f.rels) != len(o.rels) || len(f.lens) != len(o.lens) {
		return false
	}
	for r, a := range f.vals {
		if b, ok := o.vals[r]; !ok || a != b {
			return false
		}
	}
	for k, d := range f.rels {
		if d2, ok := o.rels[k]; !ok || d != d2 {
			return false
		}
	}
	for r, a := range f.lens {
		if b, ok := o.lens[r]; !ok || a != b {
			return false
		}
	}
	return true
}

// Clone implements Fact.
func (f *valueFact) Clone() Fact {
	out := &valueFact{
		an:   f.an,
		vals: make(map[vref]interval, len(f.vals)),
		rels: make(map[relKey]int64, len(f.rels)),
		lens: make(map[vref]interval, len(f.lens)),
	}
	for r, iv := range f.vals {
		out.vals[r] = iv
	}
	for k, d := range f.rels {
		out.rels[k] = d
	}
	for r, iv := range f.lens {
		out.lens[r] = iv
	}
	return out
}

// Widen implements the widener hook: a bound still moving after repeated
// visits of a loop head snaps outward to the function's constant landmarks
// (or to infinity past the last one), and a length relation whose delta
// grew is dropped, bounding the lattice chains that incrementing counters
// would otherwise climb forever.
func (f *valueFact) Widen(prev Fact) Fact {
	p := prev.(*valueFact)
	widenMap(f.an, f.vals, p.vals)
	widenMap(f.an, f.lens, p.lens)
	// A relation whose delta is still growing (i++ under i <= len(s)+d)
	// would climb forever: drop it. Join only keeps keys present on both
	// sides, so relations can only disappear from here on.
	for k, d := range f.rels {
		if pd, ok := p.rels[k]; ok && d > pd {
			delete(f.rels, k)
		}
	}
	return f
}

func widenMap(an *funcAnalysis, cur, prev map[vref]interval) {
	for r, nv := range cur {
		ov, ok := prev[r]
		if !ok {
			continue
		}
		if !nv.loInf && (ov.loInf || nv.lo < ov.lo) {
			if lm, ok := an.snapDown(nv.lo); ok {
				nv.lo = lm
			} else {
				nv.loInf = true
			}
		}
		if !nv.hiInf && (ov.hiInf || nv.hi > ov.hi) {
			if lm, ok := an.snapUp(nv.hi); ok {
				nv.hi = lm
			} else {
				nv.hiInf = true
			}
		}
		cur[r] = nv
	}
}

// lookup returns the reference's interval, falling back to its type range.
func (f *valueFact) lookup(r vref) interval {
	if iv, ok := f.vals[r]; ok {
		return iv
	}
	return f.an.refTypeInterval(r)
}

func (f *valueFact) setVal(r vref, iv interval) {
	if iv.contains(f.an.refTypeInterval(r)) {
		delete(f.vals, r)
		return
	}
	f.vals[r] = iv
}

func (f *valueFact) meetVal(r vref, iv interval) {
	f.setVal(r, f.lookup(r).meet(iv))
}

// dropRels removes every relation mentioning r on either side.
func (f *valueFact) dropRels(r vref) {
	for k := range f.rels {
		if k.x == r || k.s == r {
			delete(f.rels, k)
		}
	}
}

// dropRelsX removes relations where r is the bounded integer.
func (f *valueFact) dropRelsX(r vref) {
	for k := range f.rels {
		if k.x == r {
			delete(f.rels, k)
		}
	}
}

// shiftRels rebinds r's relations after r = r + c: x <= len(s)+d becomes
// x_new <= len(s) + d + c.
func (f *valueFact) shiftRels(r vref, c int64) {
	for k, d := range f.rels {
		if k.x == r {
			if nd, ok := satAdd(d, c); ok {
				f.rels[k] = nd
			} else {
				delete(f.rels, k)
			}
		}
	}
}

// killFieldFacts drops every fact involving a field reference: called at
// function-call boundaries, where any callee may mutate reachable struct
// state.
func (f *valueFact) killFieldFacts() {
	for r := range f.vals {
		if r.field != nil {
			delete(f.vals, r)
		}
	}
	for k := range f.rels {
		if k.x.field != nil || k.s.field != nil {
			delete(f.rels, k)
		}
	}
	for r := range f.lens {
		if r.field != nil {
			delete(f.lens, r)
		}
	}
}

// killFieldAliases drops facts about other references to the same field
// (base-aliasing: a write through one base invalidates siblings).
func (f *valueFact) killFieldAliases(r vref) {
	if r.field == nil {
		return
	}
	for o := range f.vals {
		if o.field == r.field && o != r {
			delete(f.vals, o)
		}
	}
	for k := range f.rels {
		if (k.x.field == r.field && k.x != r) || (k.s.field == r.field && k.s != r) {
			delete(f.rels, k)
		}
	}
	for o := range f.lens {
		if o.field == r.field && o != r {
			delete(f.lens, o)
		}
	}
}

// ---------------------------------------------------------------------------
// Per-function analysis

// funcAnalysis is the solved value analysis of one function body.
type funcAnalysis struct {
	eng       *valueEngine
	pkg       *Package
	decl      *ast.FuncDecl
	cfg       *CFG
	facts     []Fact
	landmarks []int64
	skip      map[types.Object]bool
	// solving is set while the fixpoint runs; a summary query that reaches
	// a function still being solved is recursion (see summaryOf).
	solving bool
}

// analysisOf builds (or returns the cached) value analysis for a declared
// function body. Returns nil for body-less declarations.
func (e *valueEngine) analysisOf(pkg *Package, decl *ast.FuncDecl) *funcAnalysis {
	if decl == nil || decl.Body == nil {
		return nil
	}
	if an, ok := e.analyses[decl]; ok {
		return an
	}
	an := &funcAnalysis{eng: e, pkg: pkg, decl: decl, skip: map[types.Object]bool{}}
	// Reserve the slot first: a recursive summary query for this same
	// function during solving must not rebuild it; summaryOf sees solving
	// and falls back to the result's type interval.
	e.analyses[decl] = an
	an.solving = true
	an.collectSkips()
	an.collectLandmarks()
	an.cfg = BuildCFG(decl.Body)
	an.facts = SolveForwardEdges(an.cfg, newValueFact(an), an.transfer, an.refineEdge)
	an.solving = false
	return an
}

// collectSkips marks variables the lattice must not track: address-taken
// locals and anything referenced inside a closure (the closure body may
// run at any time and mutate them).
func (an *funcAnalysis) collectSkips() {
	info := an.pkg.Info
	ast.Inspect(an.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				switch op := unparen(x.X).(type) {
				case *ast.Ident:
					// &x aliases everything about x.
					if obj := info.ObjectOf(op); obj != nil {
						an.skip[obj] = true
					}
				case *ast.SelectorExpr:
					// &x.f aliases the field (through any base); the base's
					// other fields stay trackable.
					if obj := info.ObjectOf(op.Sel); obj != nil {
						an.skip[obj] = true
					}
				case *ast.IndexExpr:
					// &x.f[i] / &x[i] addresses an element; tracked facts
					// are integer fields and slice lengths, which an
					// element pointer cannot reach.
				default:
					if id := baseIdent(x.X); id != nil {
						if obj := info.ObjectOf(id); obj != nil {
							an.skip[obj] = true
						}
					}
				}
			}
		case *ast.FuncLit:
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						an.skip[obj] = true
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

// collectLandmarks gathers the widening targets: every folded integer
// constant in the body, each offset by -1/0/+1 so loop fixpoints like
// "head sees counter == bound+1" land exactly.
func (an *funcAnalysis) collectLandmarks() {
	set := map[int64]bool{-1: true, 0: true, 1: true}
	ast.Inspect(an.decl.Body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := an.pkg.Info.Types[e]
		if !ok || tv.Value == nil {
			return true
		}
		if c, ok := constInt64(tv.Value); ok {
			set[c] = true
			if v, ok := satAdd(c, -1); ok {
				set[v] = true
			}
			if v, ok := satAdd(c, 1); ok {
				set[v] = true
			}
		}
		return true
	})
	an.landmarks = make([]int64, 0, len(set))
	for c := range set {
		an.landmarks = append(an.landmarks, c)
	}
	sort.Slice(an.landmarks, func(i, j int) bool { return an.landmarks[i] < an.landmarks[j] })
}

func (an *funcAnalysis) snapUp(v int64) (int64, bool) {
	i := sort.Search(len(an.landmarks), func(i int) bool { return an.landmarks[i] >= v })
	if i == len(an.landmarks) {
		return 0, false
	}
	return an.landmarks[i], true
}

func (an *funcAnalysis) snapDown(v int64) (int64, bool) {
	i := sort.Search(len(an.landmarks), func(i int) bool { return an.landmarks[i] > v })
	if i == 0 {
		return 0, false
	}
	return an.landmarks[i-1], true
}

func (an *funcAnalysis) refTypeInterval(r vref) interval {
	obj := r.base
	if r.field != nil {
		obj = r.field
	}
	return typeInterval(obj.Type())
}

// refOf resolves an expression to a trackable reference: a non-skipped
// local/parameter identifier, or base.field where base is such an
// identifier. Package-level variables are rejected (any call can mutate
// them); constant tables get their own resolution in the engine.
func (an *funcAnalysis) refOf(e ast.Expr) (vref, bool) {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := an.pkg.Info.ObjectOf(x)
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || an.skip[obj] || isPackageLevel(v) {
			return vref{}, false
		}
		return vref{base: obj}, true
	case *ast.SelectorExpr:
		id, ok := unparen(x.X).(*ast.Ident)
		if !ok {
			return vref{}, false
		}
		base := an.pkg.Info.ObjectOf(id)
		bv, ok := base.(*types.Var)
		if !ok || bv.IsField() || an.skip[base] || isPackageLevel(bv) {
			return vref{}, false
		}
		field, ok := an.pkg.Info.ObjectOf(x.Sel).(*types.Var)
		if !ok || !field.IsField() || an.skip[field] {
			return vref{}, false
		}
		return vref{base: base, field: field}, true
	}
	return vref{}, false
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// transfer interprets one block's nodes over the fact.
func (an *funcAnalysis) transfer(b *Block, in Fact, report bool) Fact {
	f := in.(*valueFact)
	for _, n := range b.Nodes {
		an.apply(n, f)
	}
	return f
}

// apply interprets one CFG node's effect on the fact.
func (an *funcAnalysis) apply(n ast.Node, f *valueFact) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		an.applyAssign(s, f)
	case *ast.IncDecStmt:
		an.killCallsIn(s.X, f)
		r, ok := an.refOf(s.X)
		if !ok {
			return
		}
		delta := int64(1)
		if s.Tok == token.DEC {
			delta = -1
		}
		iv := f.lookup(r).addConst(delta)
		f.killFieldAliases(r)
		f.shiftRels(r, delta)
		f.setVal(r, iv)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					r, ok := an.refOf(name)
					if !ok {
						continue
					}
					iv := an.refTypeInterval(r)
					if i < len(vs.Values) {
						an.killCallsIn(vs.Values[i], f)
						iv = an.eval(f, vs.Values[i])
					} else if len(vs.Values) == 0 {
						iv = ivConst(0) // zero value
						if an.refTypeInterval(r).isTop() {
							iv = an.refTypeInterval(r)
						}
					}
					f.dropRels(r)
					delete(f.lens, r)
					f.setVal(r, iv)
				}
			}
		}
	default:
		// Clause expressions, return statements, defer/go/send, expression
		// statements: only their embedded calls matter.
		an.killCallsIn(n, f)
	}
}

// applyAssign interprets an assignment statement.
func (an *funcAnalysis) applyAssign(s *ast.AssignStmt, f *valueFact) {
	for _, rhs := range s.Rhs {
		an.killCallsIn(rhs, f)
	}
	for _, lhs := range s.Lhs {
		// Index/star/selector sub-expressions on the left may call too.
		an.killCallsIn(lhs, f)
	}

	if len(s.Lhs) == len(s.Rhs) {
		// Parallel assignment: evaluate every RHS against the pre-state.
		ivs := make([]interval, len(s.Rhs))
		appendSelf := make([]bool, len(s.Rhs))
		for i, rhs := range s.Rhs {
			switch s.Tok {
			case token.ASSIGN, token.DEFINE:
				ivs[i] = an.eval(f, rhs)
				appendSelf[i] = an.isAppendToSelf(s.Lhs[i], rhs)
			case token.ADD_ASSIGN:
				ivs[i] = an.eval(f, s.Lhs[i]).add(an.eval(f, rhs))
			case token.SUB_ASSIGN:
				ivs[i] = an.eval(f, s.Lhs[i]).add(an.eval(f, rhs).neg())
			default:
				ivs[i] = ivTop()
			}
		}
		for i, lhs := range s.Lhs {
			an.assignOne(f, lhs, ivs[i], s.Rhs[i], s.Tok, appendSelf[i])
		}
		return
	}

	// Tuple assignment: x, y := f() — the first result may have a call
	// summary; the rest fall back to their types.
	var call *ast.CallExpr
	if len(s.Rhs) == 1 {
		call, _ = unparen(s.Rhs[0]).(*ast.CallExpr)
	}
	for i, lhs := range s.Lhs {
		iv := ivTop()
		if i == 0 && call != nil {
			iv = an.evalCall(f, call)
		} else if r, ok := an.refOf(lhs); ok {
			iv = an.refTypeInterval(r)
		}
		an.assignOne(f, lhs, iv, nil, s.Tok, false)
	}
}

// assignOne applies one lhs <- interval binding, maintaining relations:
// assigning to an integer drops its relations unless the RHS was lhs +/- c
// (shift); assigning to a slice drops relations keyed on its length unless
// the RHS was append(lhs, ...), which only grows the length.
func (an *funcAnalysis) assignOne(f *valueFact, lhs ast.Expr, iv interval, rhs ast.Expr, tok token.Token, appendSelf bool) {
	r, ok := an.refOf(lhs)
	if !ok {
		// A write through an untracked lvalue (pointer deref, index, map,
		// selector with a complex base): kill same-field aliases when we
		// can see the field, otherwise nothing is tracked for it anyway.
		if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok {
			if field, ok := an.pkg.Info.ObjectOf(sel.Sel).(*types.Var); ok && field.IsField() {
				for o := range f.vals {
					if o.field == field {
						delete(f.vals, o)
					}
				}
				for k := range f.rels {
					if k.x.field == field || k.s.field == field {
						delete(f.rels, k)
					}
				}
			}
		}
		return
	}
	f.killFieldAliases(r)

	// Relations where r is the bounded integer.
	shifted := false
	if tok == token.ASSIGN && rhs != nil {
		if br, c, ok := an.linearOf(rhs); ok && br == r {
			f.shiftRels(r, c)
			shifted = true
		}
	}
	if !shifted {
		f.dropRelsX(r)
	}
	// Relations and length facts where r is the measured slice. append to
	// self only grows: the length's lower bound survives, the upper does
	// not.
	if appendSelf {
		if l, ok := f.lens[r]; ok {
			l.hiInf = true
			if l.contains(anyLen()) {
				delete(f.lens, r)
			} else {
				f.lens[r] = l
			}
		}
	} else {
		for k := range f.rels {
			if k.s == r {
				delete(f.rels, k)
			}
		}
		delete(f.lens, r)
		if l, ok := an.madeLen(f, rhs, tok); ok {
			f.lens[r] = l
		}
	}
	f.setVal(r, iv)
}

// madeLen recognizes plain assignments whose RHS has a statically known
// length: make(T, n) and slice/array composite literals.
func (an *funcAnalysis) madeLen(f *valueFact, rhs ast.Expr, tok token.Token) (interval, bool) {
	if rhs == nil || (tok != token.ASSIGN && tok != token.DEFINE) {
		return interval{}, false
	}
	switch x := unparen(rhs).(type) {
	case *ast.CallExpr:
		id, ok := unparen(x.Fun).(*ast.Ident)
		if !ok || len(x.Args) < 2 {
			return interval{}, false
		}
		if _, isB := an.pkg.Info.ObjectOf(id).(*types.Builtin); !isB || id.Name != "make" {
			return interval{}, false
		}
		l := an.eval(f, x.Args[1]).meet(anyLen())
		if l.contains(anyLen()) {
			return interval{}, false
		}
		return l, true
	case *ast.CompositeLit:
		t := an.pkg.Info.TypeOf(x)
		if t == nil {
			return interval{}, false
		}
		if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
			return interval{}, false
		}
		for _, elt := range x.Elts {
			if _, isKV := elt.(*ast.KeyValueExpr); isKV {
				return interval{}, false
			}
		}
		return ivConst(int64(len(x.Elts))), true
	}
	return interval{}, false
}

// isAppendToSelf reports rhs == append(lhs, ...).
func (an *funcAnalysis) isAppendToSelf(lhs, rhs ast.Expr) bool {
	call, ok := unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isB := an.pkg.Info.ObjectOf(id).(*types.Builtin); !isB || id.Name != "append" {
		return false
	}
	lr, ok1 := an.refOf(lhs)
	ar, ok2 := an.refOf(call.Args[0])
	return ok1 && ok2 && lr == ar
}

// killCallsIn kills call-clobbered facts if the subtree contains a real
// function call (conversions and len/cap/append-style builtins have no
// side effects on tracked state). Closure literals are not descended: their
// captured variables are already untracked.
func (an *funcAnalysis) killCallsIn(n ast.Node, f *valueFact) {
	if n == nil {
		return
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch x := m.(type) {
		case *ast.FuncLit:
			// The literal itself doesn't run; calls to it are CallExprs.
			return false
		case *ast.CallExpr:
			if tv, ok := an.pkg.Info.Types[x.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := unparen(x.Fun).(*ast.Ident); ok {
				if _, isB := an.pkg.Info.ObjectOf(id).(*types.Builtin); isB {
					return true
				}
			}
			found = true
			return false
		}
		return true
	})
	if found {
		f.killFieldFacts()
	}
}

// ---------------------------------------------------------------------------
// Expression evaluation

// eval computes the interval of an integer-valued expression under f.
func (an *funcAnalysis) eval(f *valueFact, e ast.Expr) interval {
	e = unparen(e)
	if tv, ok := an.pkg.Info.Types[e]; ok && tv.Value != nil {
		if c, ok := constInt64(tv.Value); ok {
			return ivConst(c)
		}
		// Constant outside int64 (e.g. large uint64 literals): keep the
		// sign information when the constant is known non-negative.
		if tv.Value.Kind() == constant.Int && constant.Sign(tv.Value) >= 0 {
			return ivAtLeast(0)
		}
		return ivTop()
	}
	switch x := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if r, ok := an.refOf(e); ok {
			return f.lookup(r)
		}
		return typeInterval(an.pkg.Info.TypeOf(e))
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			return an.eval(f, x.X).neg()
		}
		if x.Op == token.ADD {
			return an.eval(f, x.X)
		}
		return typeInterval(an.pkg.Info.TypeOf(e))
	case *ast.BinaryExpr:
		return an.evalBinary(f, x)
	case *ast.CallExpr:
		return an.evalCall(f, x)
	default:
		return typeInterval(an.pkg.Info.TypeOf(e))
	}
}

func (an *funcAnalysis) evalBinary(f *valueFact, x *ast.BinaryExpr) interval {
	fallback := typeInterval(an.pkg.Info.TypeOf(x))
	a := an.eval(f, x.X)
	b := an.eval(f, x.Y)
	switch x.Op {
	case token.ADD:
		return a.add(b).meet(fallback)
	case token.SUB:
		return a.add(b.neg()).meet(fallback)
	case token.MUL:
		if c, ok := b.isConst(); ok && c >= 0 {
			return mulConst(a, c).meet(fallback)
		}
		if c, ok := a.isConst(); ok && c >= 0 {
			return mulConst(b, c).meet(fallback)
		}
	case token.QUO:
		// Integer division truncates toward zero, which is monotone in the
		// numerator for a positive constant divisor.
		if c, ok := b.isConst(); ok && c > 0 {
			out := interval{loInf: a.loInf, hiInf: a.hiInf}
			if !a.loInf {
				out.lo = a.lo / c
			}
			if !a.hiInf {
				out.hi = a.hi / c
			}
			return out.meet(fallback)
		}
	case token.REM:
		if c, ok := b.isConst(); ok && c > 0 {
			if an.isUnsignedExpr(x.X) || (!a.loInf && a.lo >= 0) {
				return ivRange(0, c-1)
			}
			return ivRange(-(c - 1), c-1)
		}
	case token.AND:
		// x & mask with a non-negative mask is in [0, mask].
		if c, ok := b.isConst(); ok && c >= 0 {
			return ivRange(0, c)
		}
		if c, ok := a.isConst(); ok && c >= 0 {
			return ivRange(0, c)
		}
	case token.AND_NOT, token.SHR:
		// Clearing bits / shifting right never increases a non-negative
		// value.
		if an.isUnsignedExpr(x.X) || (!a.loInf && a.lo >= 0) {
			return interval{lo: 0, hi: a.hi, hiInf: a.hiInf}
		}
	}
	return fallback
}

func mulConst(a interval, c int64) interval {
	if c == 0 {
		return ivConst(0)
	}
	out := interval{loInf: a.loInf, hiInf: a.hiInf}
	mul := func(v int64) (int64, bool) {
		p := v * c
		if v != 0 && p/v != c {
			return 0, false
		}
		return p, true
	}
	if !out.loInf {
		if v, ok := mul(a.lo); ok {
			out.lo = v
		} else {
			out.loInf = true
		}
	}
	if !out.hiInf {
		if v, ok := mul(a.hi); ok {
			out.hi = v
		} else {
			out.hiInf = true
		}
	}
	return out
}

func (an *funcAnalysis) isUnsignedExpr(e ast.Expr) bool {
	t := an.pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}

// evalCall computes the interval of a call expression's (first) result:
// conversions clamp, len/cap of arrays and constant tables fold, known
// stdlib ranges apply, and statically-resolved module functions get their
// bottom-up return summaries.
func (an *funcAnalysis) evalCall(f *valueFact, call *ast.CallExpr) interval {
	// Conversion T(x): the mathematical value is preserved when x's range
	// fits T; otherwise it wraps and only T's range is known.
	if tv, ok := an.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		target := typeInterval(tv.Type)
		inner := an.eval(f, call.Args[0])
		if target.contains(inner) {
			return inner
		}
		return target
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := an.pkg.Info.ObjectOf(id).(*types.Builtin); isB {
			switch id.Name {
			case "len", "cap":
				if len(call.Args) == 1 {
					return an.lenInterval(f, call.Args[0])
				}
			}
			return typeInterval(an.pkg.Info.TypeOf(call))
		}
	}
	if fn := an.staticCallee(call); fn != nil {
		return an.eng.summaryOf(fn)
	}
	if iv, ok := an.knownStdlibInterval(call); ok {
		return iv
	}
	return typeInterval(an.pkg.Info.TypeOf(call))
}

// lenInterval is the interval of len(arg)/cap(arg).
func (an *funcAnalysis) lenInterval(f *valueFact, arg ast.Expr) interval {
	t := an.pkg.Info.TypeOf(arg)
	if n, ok := arrayLen(t); ok {
		return ivConst(n)
	}
	if tv, ok := an.pkg.Info.Types[unparen(arg)]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return ivConst(int64(len(constant.StringVal(tv.Value))))
	}
	if obj := an.packageVarOf(arg); obj != nil {
		if n, ok := an.eng.constLenOf(obj); ok {
			return ivConst(n)
		}
	}
	if s, ok := an.refOf(arg); ok {
		if l, present := f.lens[s]; present {
			return l
		}
	}
	return anyLen()
}

// arrayLen unwraps array and pointer-to-array types.
func arrayLen(t types.Type) (int64, bool) {
	if t == nil {
		return 0, false
	}
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem().Underlying()
	}
	if a, ok := u.(*types.Array); ok {
		return a.Len(), true
	}
	return 0, false
}

// packageVarOf resolves an expression to a package-level variable object
// (an identifier or pkg.Name selector), or nil.
func (an *funcAnalysis) packageVarOf(e ast.Expr) types.Object {
	var obj types.Object
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj = an.pkg.Info.ObjectOf(x)
	case *ast.SelectorExpr:
		if id, ok := unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := an.pkg.Info.ObjectOf(id).(*types.PkgName); isPkg {
				obj = an.pkg.Info.ObjectOf(x.Sel)
			}
		}
	}
	if v, ok := obj.(*types.Var); ok && isPackageLevel(v) {
		return obj
	}
	return nil
}

// staticCallee resolves a call to a module function declaration the call
// graph knows (excluding interface dispatch), or nil.
func (an *funcAnalysis) staticCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch x := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = an.pkg.Info.ObjectOf(x)
	case *ast.SelectorExpr:
		obj = an.pkg.Info.ObjectOf(x.Sel)
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if an.eng.t.CallGraph().Node(fn) == nil {
		return nil
	}
	return fn
}

// knownStdlibInterval returns documented ranges for standard-library calls
// the repository's hot paths use.
func (an *funcAnalysis) knownStdlibInterval(call *ast.CallExpr) (interval, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return interval{}, false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return interval{}, false
	}
	pn, ok := an.pkg.Info.ObjectOf(id).(*types.PkgName)
	if !ok || pn.Imported().Path() != "math/bits" {
		return interval{}, false
	}
	name := sel.Sel.Name
	for _, prefix := range []string{"Len", "OnesCount", "TrailingZeros", "LeadingZeros"} {
		if strings.HasPrefix(name, prefix) {
			return ivRange(0, 64), true
		}
	}
	return interval{}, false
}

func constInt64(v constant.Value) (int64, bool) {
	if v == nil || v.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(v)
}

// ---------------------------------------------------------------------------
// Branch refinement

// refineEdge implements the EdgeRefiner hook: branch conditions constrain
// facts along their true/false edges, and range-head body edges bind the
// iteration variable to the collection's index range.
func (an *funcAnalysis) refineEdge(from, to *Block, fa Fact) Fact {
	f := fa.(*valueFact)
	if from.Cond != nil && (to == from.TrueSucc || to == from.FalseSucc) {
		an.refineCond(f, from.Cond, to == from.TrueSucc)
	}
	if from.Range != nil && to == from.TrueSucc {
		an.bindRange(f, from.Range)
	}
	return f
}

func (an *funcAnalysis) refineCond(f *valueFact, cond ast.Expr, truth bool) {
	switch c := unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			an.refineCond(f, c.X, !truth)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if truth {
				an.refineCond(f, c.X, true)
				an.refineCond(f, c.Y, true)
			}
		case token.LOR:
			if !truth {
				an.refineCond(f, c.X, false)
				an.refineCond(f, c.Y, false)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			op := c.Op
			if !truth {
				op = negateCompare(op)
			}
			an.refineCompare(f, c.X, op, c.Y)
		}
	}
}

func negateCompare(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	default:
		return token.EQL
	}
}

// refineCompare applies "X op Y" (already truth-normalized).
func (an *funcAnalysis) refineCompare(f *valueFact, X ast.Expr, op token.Token, Y ast.Expr) {
	X, Y = unparen(X), unparen(Y)

	// The canonical unsigned-compare guard: uint(x) < uint(y) (same
	// conversion both sides) implies x >= 0 and x < y, provided y's signed
	// value is provably non-negative (it is when y is a len term or its
	// interval says so), because a negative x converts to >= 2^63 and
	// cannot be below such a y.
	if op == token.LSS || op == token.LEQ {
		if ix, okx := an.unsignedConvArg(X); okx {
			if iy, oky := an.unsignedConvArg(Y); oky && an.nonNegSigned(f, iy) {
				if r, c, ok := an.linearOf(ix); ok {
					f.meetVal(r, ivAtLeast(0).addConst(-c))
				}
				an.refineCompare(f, ix, op, iy)
				return
			}
		}
	}

	// Length-relation refinement: X op len(S)+k (and its mirror).
	if sRef, k, ok := an.lenTermOf(Y); ok {
		if r, c, ok := an.linearOf(X); ok {
			switch op {
			case token.LSS:
				an.addRel(f, r, sRef, k-c-1)
			case token.LEQ, token.EQL:
				an.addRel(f, r, sRef, k-c)
			}
		}
	}
	if sRef, k, ok := an.lenTermOf(X); ok {
		if r, c, ok := an.linearOf(Y); ok {
			// len(S)+k op r  =>  r (flipped op) len(S)+k
			switch op {
			case token.GTR:
				an.addRel(f, r, sRef, k-c-1)
			case token.GEQ, token.EQL:
				an.addRel(f, r, sRef, k-c)
			}
		}
	}

	// Length-interval refinement: a guard like `len(v) > 0` constrains
	// what is known about len(v) itself.
	if sRef, k, ok := an.lenTermOf(X); ok {
		an.refineLen(f, sRef, k, op, an.eval(f, Y))
	}
	if sRef, k, ok := an.lenTermOf(Y); ok {
		an.refineLen(f, sRef, k, flipCompare(op), an.eval(f, X))
	}

	// Interval refinement: bound each linear side by the other side's
	// evaluated interval.
	if r, c, ok := an.linearOf(X); ok {
		an.refineLinear(f, r, c, op, an.eval(f, Y))
	}
	if r, c, ok := an.linearOf(Y); ok {
		an.refineLinear(f, r, c, flipCompare(op), an.eval(f, X))
	}
}

// refineLen applies "len(s) + k op other" to the tracked length interval.
func (an *funcAnalysis) refineLen(f *valueFact, s vref, k int64, op token.Token, other interval) {
	bound, ok := compareBound(op, other)
	if !ok {
		return
	}
	cur, present := f.lens[s]
	if !present {
		cur = anyLen()
	}
	cur = cur.meet(bound.addConst(-k))
	if cur.contains(anyLen()) {
		delete(f.lens, s)
		return
	}
	f.lens[s] = cur
}

// compareBound turns "lhs op other" into the interval constraint it puts
// on lhs, when the comparison constrains at all.
func compareBound(op token.Token, other interval) (interval, bool) {
	if other.empty() {
		return interval{}, false
	}
	switch op {
	case token.LSS:
		if other.hiInf {
			return interval{}, false
		}
		return interval{loInf: true, hi: other.hi}.addConst(-1), true
	case token.LEQ:
		if other.hiInf {
			return interval{}, false
		}
		return interval{loInf: true, hi: other.hi}, true
	case token.GTR:
		if other.loInf {
			return interval{}, false
		}
		return interval{lo: other.lo, hiInf: true}.addConst(1), true
	case token.GEQ:
		if other.loInf {
			return interval{}, false
		}
		return interval{lo: other.lo, hiInf: true}, true
	case token.EQL:
		return other, true
	}
	return interval{}, false
}

func flipCompare(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	default:
		return op // EQL, NEQ symmetric
	}
}

// refineLinear applies "r + c op other" to r's interval.
func (an *funcAnalysis) refineLinear(f *valueFact, r vref, c int64, op token.Token, other interval) {
	if other.empty() {
		return
	}
	switch op {
	case token.LSS:
		if !other.hiInf {
			f.meetVal(r, interval{loInf: true, hi: other.hi - 1 - c})
		}
	case token.LEQ:
		if !other.hiInf {
			f.meetVal(r, interval{loInf: true, hi: other.hi - c})
		}
	case token.GTR:
		if !other.loInf {
			f.meetVal(r, interval{lo: other.lo + 1 - c, hiInf: true})
		}
	case token.GEQ:
		if !other.loInf {
			f.meetVal(r, interval{lo: other.lo - c, hiInf: true})
		}
	case token.EQL:
		f.meetVal(r, other.addConst(-c))
	case token.NEQ:
		if v, ok := other.isConst(); ok {
			cur := f.lookup(r)
			if lo, isC := cur.isConst(); isC && lo == v-c {
				f.setVal(r, interval{lo: 1, hi: 0}) // contradiction: dead edge
				return
			}
			if !cur.loInf && cur.lo == v-c {
				cur.lo++
				f.setVal(r, cur)
			} else if !cur.hiInf && cur.hi == v-c {
				cur.hi--
				f.setVal(r, cur)
			}
		}
	}
}

func (an *funcAnalysis) addRel(f *valueFact, x vref, s vref, delta int64) {
	k := relKey{x: x, s: s}
	if d, ok := f.rels[k]; !ok || delta < d {
		f.rels[k] = delta
	}
}

// unsignedConvArg unwraps T(x) where T is an unsigned basic type.
func (an *funcAnalysis) unsignedConvArg(e ast.Expr) (ast.Expr, bool) {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	tv, ok := an.pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsUnsigned == 0 {
		return nil, false
	}
	return call.Args[0], true
}

// nonNegSigned reports whether e's signed mathematical value is provably
// in [0, MaxInt64] — i.e. converting it to an unsigned type preserves it.
func (an *funcAnalysis) nonNegSigned(f *valueFact, e ast.Expr) bool {
	if _, _, ok := an.lenTermOf(e); ok {
		return true // len() is always in [0, MaxInt]
	}
	iv := an.eval(f, e)
	return !iv.loInf && iv.lo >= 0 && !iv.hiInf
}

// linearOf decomposes e as ref + c, looking through parens, +/- integer
// constants, and lossless widening conversions.
func (an *funcAnalysis) linearOf(e ast.Expr) (vref, int64, bool) {
	e = unparen(e)
	if r, ok := an.refOf(e); ok {
		return r, 0, true
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		if x.Op != token.ADD && x.Op != token.SUB {
			break
		}
		if c, ok := an.foldedInt(x.Y); ok {
			if r, c0, ok := an.linearOf(x.X); ok {
				if x.Op == token.SUB {
					c = -c
				}
				if sum, ok := satAdd(c0, c); ok {
					return r, sum, true
				}
			}
		}
		if x.Op == token.ADD {
			if c, ok := an.foldedInt(x.X); ok {
				if r, c0, ok := an.linearOf(x.Y); ok {
					if sum, ok := satAdd(c0, c); ok {
						return r, sum, true
					}
				}
			}
		}
	case *ast.CallExpr:
		// Lossless widening conversion: the target range contains the
		// source type's range, so the mathematical value is unchanged.
		if tv, ok := an.pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			src := an.pkg.Info.TypeOf(x.Args[0])
			if typeInterval(tv.Type).contains(typeInterval(src)) {
				return an.linearOf(x.Args[0])
			}
		}
	}
	return vref{}, 0, false
}

func (an *funcAnalysis) foldedInt(e ast.Expr) (int64, bool) {
	tv, ok := an.pkg.Info.Types[unparen(e)]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constInt64(tv.Value)
}

// lenTermOf decomposes e as len(S) + k for a trackable slice/string
// reference S, looking through integer conversions (len is always
// non-negative, so any widening to >= 32 bits preserves it).
func (an *funcAnalysis) lenTermOf(e ast.Expr) (vref, int64, bool) {
	e = unparen(e)
	switch x := e.(type) {
	case *ast.BinaryExpr:
		if x.Op != token.ADD && x.Op != token.SUB {
			return vref{}, 0, false
		}
		if c, ok := an.foldedInt(x.Y); ok {
			if s, k, ok := an.lenTermOf(x.X); ok {
				if x.Op == token.SUB {
					c = -c
				}
				if sum, ok := satAdd(k, c); ok {
					return s, sum, true
				}
			}
		}
		if x.Op == token.ADD {
			if c, ok := an.foldedInt(x.X); ok {
				if s, k, ok := an.lenTermOf(x.Y); ok {
					if sum, ok := satAdd(k, c); ok {
						return s, sum, true
					}
				}
			}
		}
	case *ast.CallExpr:
		if tv, ok := an.pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return an.lenTermOf(x.Args[0])
		}
		id, ok := unparen(x.Fun).(*ast.Ident)
		if !ok || len(x.Args) != 1 {
			return vref{}, 0, false
		}
		if _, isB := an.pkg.Info.ObjectOf(id).(*types.Builtin); !isB || id.Name != "len" {
			return vref{}, 0, false
		}
		arg := unparen(x.Args[0])
		s, ok := an.refOf(arg)
		if !ok {
			return vref{}, 0, false
		}
		t := an.pkg.Info.TypeOf(arg)
		if t == nil {
			return vref{}, 0, false
		}
		switch u := t.Underlying().(type) {
		case *types.Slice:
			return s, 0, true
		case *types.Basic:
			if u.Info()&types.IsString != 0 {
				return s, 0, true
			}
		}
	}
	return vref{}, 0, false
}

// bindRange binds the key variable of a range head along the body edge.
func (an *funcAnalysis) bindRange(f *valueFact, rng *ast.RangeStmt) {
	// The value variable is freshly bound each iteration: reset it.
	if rng.Value != nil {
		if vr, ok := an.refOf(rng.Value); ok {
			f.dropRels(vr)
			delete(f.vals, vr)
			delete(f.lens, vr)
		}
	}
	if rng.Key == nil {
		return
	}
	kr, ok := an.refOf(rng.Key)
	if !ok {
		return
	}
	f.dropRels(kr)
	delete(f.vals, kr)
	delete(f.lens, kr)
	t := an.pkg.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if n, ok := arrayLen(t); ok {
		f.setVal(kr, ivRange(0, n-1))
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		f.setVal(kr, ivAtLeast(0))
		if sr, ok := an.refOf(rng.X); ok {
			an.addRel(f, kr, sr, -1)
		} else if obj := an.packageVarOf(rng.X); obj != nil {
			if n, ok := an.eng.constLenOf(obj); ok {
				f.meetVal(kr, ivRange(0, n-1))
			}
		}
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			f.setVal(kr, ivAtLeast(0))
			if sr, ok := an.refOf(rng.X); ok {
				an.addRel(f, kr, sr, -1)
			}
		} else if u.Info()&types.IsInteger != 0 {
			// range over int: 0 <= k < n
			f.setVal(kr, ivAtLeast(0))
			n := an.eval(f, rng.X)
			if !n.hiInf {
				f.meetVal(kr, interval{loInf: true, hi: n.hi - 1})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Walking with facts, index proofs

// walk re-interprets every reachable block with its fixpoint entry fact,
// calling visit on each node with the fact state holding immediately
// before the node executes.
func (an *funcAnalysis) walk(visit func(n ast.Node, f *valueFact)) {
	if an == nil {
		return
	}
	for i, b := range an.cfg.Blocks {
		if an.facts[i] == nil {
			continue
		}
		f := an.facts[i].Clone().(*valueFact)
		for _, n := range b.Nodes {
			visit(n, f)
			an.apply(n, f)
		}
	}
}

// visitIndexes calls visit for every index expression inside n with the
// fact state under which it evaluates: the right operand of && sees the
// left operand's true-refinement (and of ||, its false-refinement),
// because short-circuiting is control flow the CFG does not decompose.
// Closure-literal bodies are skipped (they run when the closure does).
func (an *funcAnalysis) visitIndexes(f *valueFact, n ast.Node, visit func(idx *ast.IndexExpr, f *valueFact)) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if x.Op == token.LAND || x.Op == token.LOR {
				an.visitIndexes(f, x.X, visit)
				g := f.Clone().(*valueFact)
				an.refineCond(g, x.X, x.Op == token.LAND)
				an.visitIndexes(g, x.Y, visit)
				return false
			}
		case *ast.IndexExpr:
			visit(x, f)
		}
		return true
	})
}

// proveIndex attempts to prove idx in-bounds under f. The second result
// explains an unprovable obligation for the finding message.
func (an *funcAnalysis) proveIndex(f *valueFact, idx *ast.IndexExpr) (bool, string) {
	t := an.pkg.Info.TypeOf(idx.X)
	if t == nil {
		return true, ""
	}
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem().Underlying()
	}
	var constLen int64 = -1
	switch c := u.(type) {
	case *types.Map:
		return true, "" // map index never panics
	case *types.Array:
		constLen = c.Len()
	case *types.Slice:
	case *types.Basic:
		if c.Info()&types.IsString == 0 {
			return true, ""
		}
	default:
		return true, "" // generic type parameters etc.
	}
	if constLen < 0 {
		// A slice/string backed by a constant: table vars and string
		// constants have statically known lengths.
		if obj := an.packageVarOf(idx.X); obj != nil {
			if n, ok := an.eng.constLenOf(obj); ok {
				constLen = n
			}
		}
		if tv, ok := an.pkg.Info.Types[unparen(idx.X)]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			constLen = int64(len(constant.StringVal(tv.Value)))
		}
	}

	iv := an.eval(f, idx.Index)
	if iv.empty() {
		return true, "" // infeasible path
	}
	if iv.loInf || iv.lo < 0 {
		return false, fmt.Sprintf("index interval %s may be negative", iv)
	}
	if constLen >= 0 {
		if !iv.hiInf && iv.hi <= constLen-1 {
			return true, ""
		}
		return false, fmt.Sprintf("index interval %s exceeds length %d", iv, constLen)
	}
	// Unknown length: either a relation index <= len(container) - 1, or a
	// guard-derived lower bound on the length itself covering the index's
	// upper bound.
	if cr, ok := an.refOf(idx.X); ok {
		if r, c, ok := an.linearOf(idx.Index); ok {
			if d, ok := f.rels[relKey{x: r, s: cr}]; ok {
				if sum, valid := satAdd(d, c); valid && sum <= -1 {
					return true, ""
				}
			}
		}
		if l, present := f.lens[cr]; present && !iv.hiInf && !l.loInf && iv.hi <= l.lo-1 {
			return true, ""
		}
	}
	return false, fmt.Sprintf("index interval %s has no length relation with the container", iv)
}

// ---------------------------------------------------------------------------
// The engine: summaries and constant tables

// valueEngine caches per-function analyses, interprocedural return-
// interval summaries, and resolved constant tables across the passes of
// one run.
type valueEngine struct {
	t          *Target
	analyses   map[*ast.FuncDecl]*funcAnalysis
	summaries  map[*types.Func]interval
	inProgress map[*types.Func]bool
	tables     map[types.Object][]string
	tablesOK   map[types.Object]bool
	mutated    map[types.Object]bool
}

// values returns the target's shared value engine, building it lazily.
func (t *Target) values() *valueEngine {
	if t.ve == nil {
		t.ve = &valueEngine{
			t:          t,
			analyses:   map[*ast.FuncDecl]*funcAnalysis{},
			summaries:  map[*types.Func]interval{},
			inProgress: map[*types.Func]bool{},
			tables:     map[types.Object][]string{},
			tablesOK:   map[types.Object]bool{},
		}
	}
	return t.ve
}

// summaryOf computes the interval of fn's first result by analyzing its
// body, memoized; recursion (an SCC cycle in the call graph) falls back to
// the result's type interval.
func (e *valueEngine) summaryOf(fn *types.Func) interval {
	if iv, ok := e.summaries[fn]; ok {
		return iv
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return ivTop()
	}
	fallback := typeInterval(sig.Results().At(0).Type())
	node := e.t.CallGraph().Node(fn)
	if node == nil || node.Decl.Body == nil {
		e.summaries[fn] = fallback
		return fallback
	}
	if an, ok := e.analyses[node.Decl]; e.inProgress[fn] || ok && an.solving {
		return fallback // recursion: don't memoize the coarse answer
	}
	e.inProgress[fn] = true
	an := e.analysisOf(node.Pkg, node.Decl)
	acc := interval{lo: 1, hi: 0} // bottom
	complete := true
	an.walk(func(n ast.Node, f *valueFact) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		if len(ret.Results) == 0 {
			complete = false // bare return with named results
			return
		}
		acc = acc.join(an.eval(f, ret.Results[0]))
	})
	delete(e.inProgress, fn)
	iv := fallback
	if complete && !acc.empty() {
		iv = acc.meet(fallback)
	}
	e.summaries[fn] = iv
	return iv
}

// constLenOf reports the length of a package-level constant table (see
// constTableOf).
func (e *valueEngine) constLenOf(obj types.Object) (int64, bool) {
	tbl, ok := e.constTableOf(obj)
	if !ok {
		return 0, false
	}
	return int64(len(tbl)), true
}

// constTableOf resolves a package-level variable to its constant string
// elements: the var must be initialized with a slice/array literal of
// folded string constants and never be written anywhere in the target
// (assignment, ++/--, or address-taken). Such tables behave as constants,
// so their lengths and element sets are usable in static proofs.
func (e *valueEngine) constTableOf(obj types.Object) ([]string, bool) {
	if ok, resolved := e.tablesOK[obj]; resolved {
		return e.tables[obj], ok
	}
	e.tablesOK[obj] = false
	if e.globalMutated(obj) {
		return nil, false
	}
	v, ok := obj.(*types.Var)
	if !ok || !isPackageLevel(v) {
		return nil, false
	}
	pkg := e.t.Package(v.Pkg().Path())
	if pkg == nil {
		return nil, false
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if pkg.Info.ObjectOf(name) != obj || i >= len(vs.Values) {
						continue
					}
					lit, ok := unparen(vs.Values[i]).(*ast.CompositeLit)
					if !ok {
						return nil, false
					}
					var out []string
					for _, elt := range lit.Elts {
						if _, isKV := elt.(*ast.KeyValueExpr); isKV {
							return nil, false // keyed elements: order unclear
						}
						s, ok := constString(pkg, elt)
						if !ok {
							return nil, false
						}
						out = append(out, s)
					}
					e.tables[obj] = out
					e.tablesOK[obj] = true
					return out, true
				}
			}
		}
	}
	return nil, false
}

// globalMutated reports whether any target package writes the package-
// level variable (assigns it, takes its address, or ++/--s it). Computed
// once for the whole target.
func (e *valueEngine) globalMutated(obj types.Object) bool {
	if e.mutated == nil {
		e.mutated = map[types.Object]bool{}
		for _, pkg := range e.t.Pkgs {
			info := pkg.Info
			// mark records every object along an lvalue chain: writing
			// x.f[i] mutates f and (conservatively) x, so x.f can no
			// longer be treated as a constant table.
			mark := func(ex ast.Expr) {
				for {
					switch x := unparen(ex).(type) {
					case *ast.Ident:
						if o := info.ObjectOf(x); o != nil {
							e.mutated[o] = true
						}
						return
					case *ast.SelectorExpr:
						if o := info.ObjectOf(x.Sel); o != nil {
							e.mutated[o] = true
						}
						ex = x.X
					case *ast.IndexExpr:
						ex = x.X
					case *ast.StarExpr:
						ex = x.X
					default:
						return
					}
				}
			}
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							mark(lhs)
						}
					case *ast.IncDecStmt:
						mark(x.X)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							mark(x.X)
						}
					}
					return true
				})
			}
		}
	}
	return e.mutated[obj]
}
