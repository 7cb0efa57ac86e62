package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// determcheck makes the repository's byte-stability contracts static.
// Snapshot encoding, snapshot merging, and report/figure emission all
// promise byte-identical output for identical inputs — the property every
// serial-vs-parallel equivalence test and the daemon's checkpoint-restore
// path assert. This pass proves the promise instead of sampling it:
// functions annotated //iocov:deterministic are roots, and everything
// statically reachable from a root must be free of the four nondeterminism
// sources Go offers:
//
//   - wall clock: time.Now / time.Since / time.Until;
//   - global RNG: math/rand package-level functions (seeded generators via
//     rand.New(rand.NewSource(k)) are fine and stay allowed);
//   - goroutine completion order: any go statement;
//   - map iteration order leaking into results.
//
// The map rule is the interesting one, because ranging over a map is fine
// when the body is order-independent. The classifier accepts, per
// statement: declarations; writes to loop-local variables (directly or
// through fields/indexes of one); writes to a map index (entries commute);
// integer compound accumulation (+=, |=, ... — associative and
// commutative); max/min selection (an assignment guarded by an ordered
// comparison); break/continue; delete. An append to an outer slice taints
// it — the taint washes off when the slice is later passed to a sorting
// function (the sort and slices packages, or a module function that itself
// calls one). Everything else is order-dependent and flagged: float or
// string accumulation (neither is associative), bare calls, sends, returns
// from inside the loop, plain overwrites of outer variables.
//
// Like alloccheck, the traversal follows static edges only: an interface
// call is a contract boundary the caller cannot see through, and the
// annotation moves to the implementations.
type determCheck struct{}

// NewDetermCheck returns the determinism pass.
func NewDetermCheck() Pass { return &determCheck{} }

func (c *determCheck) Name() string { return "determcheck" }

func (c *determCheck) Run(t *Target) []Finding {
	g := t.CallGraph()
	an := &determAnalysis{t: t, g: g, sorters: make(map[*CGNode]int8)}
	scanned := make(map[*CGNode]bool)
	for _, root := range g.Nodes() {
		if !root.FA.deterministic {
			continue
		}
		reach := g.Reachable([]*types.Func{root.Obj}, nil)
		for _, n := range g.Nodes() {
			if !reach[n.Obj] || scanned[n] {
				continue
			}
			scanned[n] = true
			an.scanFunc(n, root)
		}
	}
	return an.findings
}

type determAnalysis struct {
	t *Target
	g *CallGraph
	// sorters caches whether a module function's body contains a stdlib
	// sort call (1 yes, -1 no), making it a taint wash.
	sorters  map[*CGNode]int8
	findings []Finding
}

func (an *determAnalysis) report(root *CGNode, pos token.Pos, format string, args ...any) {
	an.findings = append(an.findings, Finding{
		Pass: "determcheck",
		Pos:  an.t.Position(pos),
		Message: fmt.Sprintf("(deterministic root %s): %s",
			root.Name(), fmt.Sprintf(format, args...)),
	})
}

// scanFunc checks one reachable function: denied calls, go statements, and
// every map range in the body (closures included).
func (an *determAnalysis) scanFunc(n *CGNode, root *CGNode) {
	info := n.Pkg.Info
	// The classifier recurses through nested loops itself, so only the
	// outermost map range of any nest is classified; the walk still
	// continues into every body for calls and go statements.
	var outermost token.Pos = token.NoPos
	var outermostEnd token.Pos
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			an.report(root, x.Pos(), "%s starts a goroutine: completion order is nondeterministic", n.Name())
		case *ast.CallExpr:
			if msg := deniedDetermCall(info, x); msg != "" {
				an.report(root, x.Pos(), "%s %s", n.Name(), msg)
			}
		case *ast.RangeStmt:
			if rangesOverMap(info, x) {
				inOuter := outermost != token.NoPos && outermost <= x.Pos() && x.Pos() < outermostEnd
				if !inOuter {
					outermost, outermostEnd = x.Pos(), x.End()
					an.checkMapRange(n, root, x)
				}
			}
		}
		return true
	})
}

// deniedDetermCall reports why a call is nondeterministic, or "".
func deniedDetermCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "" // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return fmt.Sprintf("calls time.%s: wall-clock reads differ run to run", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return "" // constructing a seeded generator is deterministic
		}
		return fmt.Sprintf("calls the global RNG (rand.%s): use a seeded rand.New(rand.NewSource(k))", fn.Name())
	}
	return ""
}

// rangesOverMap reports whether the range statement iterates a map.
func rangesOverMap(info *types.Info, rng *ast.RangeStmt) bool {
	tv, ok := info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange classifies every statement executed under a map iteration
// as order-independent or not.
func (an *determAnalysis) checkMapRange(n *CGNode, root *CGNode, rng *ast.RangeStmt) {
	info := n.Pkg.Info

	// Objects declared inside the loop (including the key/value bindings and
	// any nested loop's) are loop-local: writes to them cannot leak order.
	local := make(map[types.Object]bool)
	ast.Inspect(rng, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	isLocal := func(e ast.Expr) bool {
		id := baseIdent(e)
		return id != nil && local[info.Uses[id]]
	}

	// taints collects outer slices appended to in map order; a later sort
	// call washes them.
	type taint struct {
		obj  types.Object
		name string
		pos  token.Pos
	}
	var taints []taint

	var walkStmt func(s ast.Stmt, ordered bool)
	walkList := func(list []ast.Stmt, ordered bool) {
		for _, s := range list {
			walkStmt(s, ordered)
		}
	}
	walkStmt = func(s ast.Stmt, ordered bool) {
		switch st := s.(type) {
		case nil:
		case *ast.DeclStmt, *ast.EmptyStmt, *ast.BranchStmt:
		case *ast.AssignStmt:
			an.classifyAssign(n, root, st, info, isLocal, ordered, func(obj types.Object, name string, pos token.Pos) {
				taints = append(taints, taint{obj, name, pos})
			})
		case *ast.IncDecStmt:
			if isLocal(st.X) || isIntExpr(info, st.X) {
				return
			}
			an.report(root, st.Pos(), "%s applies %s to a non-integer in map iteration order", n.Name(), st.Tok)
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						return // delete, clear: entry-wise, commutes
					}
				}
			}
			an.report(root, st.Pos(), "%s evaluates a statement for each entry in map iteration order; hoist it out or iterate sorted keys", n.Name())
		case *ast.ReturnStmt:
			an.report(root, st.Pos(), "%s returns from inside a map iteration: which entry wins depends on order", n.Name())
		case *ast.SendStmt:
			an.report(root, st.Pos(), "%s sends on a channel in map iteration order", n.Name())
		case *ast.BlockStmt:
			walkList(st.List, ordered)
		case *ast.IfStmt:
			walkStmt(st.Init, ordered)
			walkList(st.Body.List, ordered || orderedComparison(st.Cond))
			walkStmt(st.Else, ordered)
		case *ast.ForStmt:
			walkStmt(st.Init, ordered)
			walkStmt(st.Post, ordered)
			walkList(st.Body.List, ordered)
		case *ast.RangeStmt:
			walkList(st.Body.List, ordered)
		case *ast.SwitchStmt:
			walkStmt(st.Init, ordered)
			for _, cc := range st.Body.List {
				walkList(cc.(*ast.CaseClause).Body, ordered)
			}
		case *ast.TypeSwitchStmt:
			walkStmt(st.Init, ordered)
			for _, cc := range st.Body.List {
				walkList(cc.(*ast.CaseClause).Body, ordered)
			}
		case *ast.LabeledStmt:
			walkStmt(st.Stmt, ordered)
		default:
			// select, defer, go (go is flagged by scanFunc already): no
			// order-independence argument exists.
			if _, isGo := s.(*ast.GoStmt); !isGo {
				an.report(root, s.Pos(), "%s runs a statement with order-dependent effects inside a map iteration", n.Name())
			}
		}
	}
	walkList(rng.Body.List, false)

	for _, ta := range taints {
		if !an.washedAfter(n, ta.obj, rng.End()) {
			an.report(root, ta.pos, "%s appends to %s in map iteration order and never sorts it; sort after the loop or iterate sorted keys", n.Name(), ta.name)
		}
	}
}

// classifyAssign decides whether one assignment under a map range is
// order-independent. addTaint records an append to an outer slice.
func (an *determAnalysis) classifyAssign(n *CGNode, root *CGNode, st *ast.AssignStmt, info *types.Info,
	isLocal func(ast.Expr) bool, ordered bool, addTaint func(types.Object, string, token.Pos)) {
	if st.Tok == token.DEFINE {
		return // fresh loop-locals
	}
	for i, lhs := range st.Lhs {
		lhs = ast.Unparen(lhs)
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue // discarded
		}
		if isLocal(lhs) {
			continue // writes through a loop-local cannot leak order
		}
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if tv, ok := info.Types[ix.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					if st.Tok == token.ASSIGN || accumulationOK(info, lhs, st.Tok) {
						continue // map writes commute entry-wise
					}
				}
			}
		}
		if st.Tok != token.ASSIGN {
			if accumulationOK(info, lhs, st.Tok) {
				continue // integer accumulation is associative+commutative
			}
			an.report(root, st.Pos(), "%s accumulates a non-integer (%s) in map iteration order: float and string accumulation are order-sensitive; iterate sorted keys", n.Name(), typeName(info, lhs))
			continue
		}
		// Plain = to an outer variable.
		if len(st.Rhs) == len(st.Lhs) {
			if obj, name := appendTarget(info, lhs, st.Rhs[i]); obj != nil {
				addTaint(obj, name, st.Pos())
				continue
			}
		}
		if ordered {
			continue // max/min selection under an ordered comparison
		}
		an.report(root, st.Pos(), "%s overwrites %s in map iteration order: the last entry wins nondeterministically", n.Name(), exprText(lhs))
	}
}

// accumulationOK reports whether a compound assignment on lhs is an
// associative, commutative integer accumulation.
func accumulationOK(info *types.Info, lhs ast.Expr, tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.MUL_ASSIGN:
		return isIntExpr(info, lhs)
	}
	return false
}

// appendTarget matches `x = append(x, ...)` and returns x's object.
func appendTarget(info *types.Info, lhs, rhs ast.Expr) (types.Object, string) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil, ""
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, ""
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil, ""
	}
	if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin {
		return nil, ""
	}
	obj := info.Uses[id]
	if obj == nil {
		return nil, ""
	}
	return obj, id.Name
}

// washedAfter reports whether obj is passed to a sorting function after pos
// within n's body: the sort and slices packages, or a module function whose
// body contains such a call.
func (an *determAnalysis) washedAfter(n *CGNode, obj types.Object, pos token.Pos) bool {
	info := n.Pkg.Info
	washed := false
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if washed {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok || call.Pos() <= pos {
			return true
		}
		mentions := false
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.Uses[id] == obj {
					mentions = true
				}
				return !mentions
			})
		}
		if mentions && an.isSortCall(info, call) {
			washed = true
		}
		return true
	})
	return washed
}

// isSortCall reports whether a call sorts: a sort/slices package function,
// or a module function that itself makes one.
func (an *determAnalysis) isSortCall(info *types.Info, call *ast.CallExpr) bool {
	var fn *types.Func
	switch x := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[x].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[x.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	node := an.g.Node(fn)
	if node == nil {
		return false
	}
	if v := an.sorters[node]; v != 0 {
		return v > 0
	}
	sorts := false
	ast.Inspect(node.Decl.Body, func(nd ast.Node) bool {
		if sorts {
			return false
		}
		c, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
			if f, ok := node.Pkg.Info.Uses[sel.Sel].(*types.Func); ok && f.Pkg() != nil {
				switch f.Pkg().Path() {
				case "sort", "slices":
					sorts = true
				}
			}
		}
		return true
	})
	if sorts {
		an.sorters[node] = 1
	} else {
		an.sorters[node] = -1
	}
	return sorts
}

// baseIdent strips selectors, indexes, stars, and parens down to the root
// identifier of an lvalue, or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// orderedComparison reports whether cond is an ordered comparison (<, >,
// <=, >=), the guard of the max/min selection idiom.
func orderedComparison(cond ast.Expr) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch b.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

// isIntExpr reports whether e's type is an integer.
func isIntExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// typeName renders an expression's type for diagnostics.
func typeName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return "unknown"
	}
	return tv.Type.String()
}

// exprText renders a short lvalue for diagnostics.
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	}
	return "expression"
}
