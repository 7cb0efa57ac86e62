package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocCheck makes the zero-allocation hot-path contract static. The repo
// pins its per-event paths (Analyzer.Add, Filter.Keep, Proc.emit, the dense
// partition indexers) with testing.AllocsPerRun regressions, but those
// self-skip under -race, where the allocator is instrumented; this pass
// proves the same property from source, so a -race CI lane still enforces
// it.
//
// Functions annotated //iocov:hotpath are roots. Every function statically
// reachable from a root — direct calls and concrete-receiver method calls,
// across packages — must contain no allocating construct:
//
//   - make, new, map and slice composite literals, &T{...};
//   - closures (FuncLit) and go statements;
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - interface boxing: passing a concrete non-pointer value where a
//     parameter is interface-typed;
//   - append whose destination is not rooted at a parameter or the
//     receiver (caller-owned or fixed receiver buffers are the contract;
//     anything else can grow);
//   - calls into the standard library's known allocators (fmt, errors,
//     sort, regexp compilation, formatting strconv, allocating strings/
//     bytes helpers, strings.Builder/bytes.Buffer methods).
//
// Escape hatches, matching how amortized-zero paths actually work:
//
//   - //iocov:coldpath stops traversal: an acknowledged slow path
//     (first-sight compilation, option-gated features) may allocate;
//   - any construct inside an `if x == nil { ... }` guard is exempt:
//     lazy one-time initialization (spill storage, per-pid tables)
//     amortizes to zero;
//   - map index writes are exempt (growth is amortized, and the
//     AllocsPerRun pins measure steady state the same way);
//   - calls through interfaces are boundaries, not violations: each
//     implementation used on a hot path carries its own annotation
//     (the pass does no class-hierarchy analysis);
//   - unlisted external calls are trusted (the denylist is explicit,
//     not inferred).
type AllocCheck struct{}

// NewAllocCheck returns the pass.
func NewAllocCheck() *AllocCheck { return &AllocCheck{} }

// Name implements Pass.
func (a *AllocCheck) Name() string { return "alloccheck" }

type allocAnalysis struct {
	t        *Target
	g        *CallGraph
	pass     string
	findings []Finding
	// guards caches each caller's nil-guard regions for edge filtering.
	guards map[*CGNode][]posRange
	// closures caches each caller's closure-literal regions: a call inside
	// a FuncLit runs when the closure does, not when the enclosing function
	// does, and the closure itself is already a hot-path finding.
	closures map[*CGNode][]posRange
}

// Run implements Pass. Reachability comes from the module call graph:
// hot-path roots are traversed over static edges only (interface and
// func-value dispatch are annotation boundaries per the pass contract),
// stopping at //iocov:coldpath callees and at calls made inside nil-guard
// lazy-init regions or closure literals.
func (a *AllocCheck) Run(t *Target) []Finding {
	g := t.CallGraph()
	an := &allocAnalysis{
		t: t, g: g, pass: a.Name(),
		guards:   make(map[*CGNode][]posRange),
		closures: make(map[*CGNode][]posRange),
	}

	// Nodes() is in declaration order, so the first root to reach a shared
	// helper attributes it deterministically.
	var roots []*CGNode
	for _, n := range g.Nodes() {
		if n.FA.hotpath {
			roots = append(roots, n)
		}
	}
	visited := make(map[*types.Func]bool)
	for _, root := range roots {
		reach := g.Reachable([]*types.Func{root.Obj}, func(e *CallSite) bool {
			return !e.Callee.FA.coldpath &&
				!inRegions(an.guardRegions(e.Caller), e.Pos) &&
				!inRegions(an.closureRegions(e.Caller), e.Pos)
		})
		for _, n := range g.Nodes() {
			if reach[n.Obj] && !visited[n.Obj] {
				visited[n.Obj] = true
				an.scan(n, root.Name())
			}
		}
	}
	return an.findings
}

// guardRegions returns (caching) the caller's nil-guard regions.
func (an *allocAnalysis) guardRegions(n *CGNode) []posRange {
	r, ok := an.guards[n]
	if !ok {
		r = nilGuardRegions(n.Decl.Body)
		an.guards[n] = r
	}
	return r
}

// closureRegions returns (caching) the caller's FuncLit body regions.
func (an *allocAnalysis) closureRegions(n *CGNode) []posRange {
	r, ok := an.closures[n]
	if !ok {
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			if lit, isLit := node.(*ast.FuncLit); isLit {
				r = append(r, posRange{lit.Body.Pos(), lit.Body.End()})
				return false
			}
			return true
		})
		an.closures[n] = r
	}
	return r
}

// inRegions reports whether a position falls inside any region.
func inRegions(regions []posRange, p token.Pos) bool {
	for _, r := range regions {
		if p >= r.from && p < r.to {
			return true
		}
	}
	return false
}

// funcDisplayName renders "Recv.Name" for methods, "Name" otherwise.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// posRange is a half-open source region.
type posRange struct{ from, to token.Pos }

// nilGuardRegions collects the bodies of `if x == nil` statements: allocating
// inside one is lazy initialization, amortized to zero in steady state.
func nilGuardRegions(body *ast.BlockStmt) []posRange {
	var regions []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if condHasNilEquality(ifs.Cond) {
			regions = append(regions, posRange{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return regions
}

// condHasNilEquality reports whether the condition contains an `== nil`
// comparison (anywhere: `a == nil || b == nil` qualifies; `!= nil` does not).
func condHasNilEquality(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.EQL {
			return true
		}
		if isNilIdent(be.X) || isNilIdent(be.Y) {
			found = true
		}
		return true
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// scan reports every allocating construct in one reachable function.
func (an *allocAnalysis) scan(fn *CGNode, root string) {
	name := fn.Name()
	regions := an.guardRegions(fn)
	inGuard := func(p token.Pos) bool { return inRegions(regions, p) }
	flag := func(pos token.Pos, format string, args ...interface{}) {
		if inGuard(pos) {
			return
		}
		an.findings = append(an.findings, Finding{
			Pass: an.pass,
			Pos:  an.t.Position(pos),
			Message: fmt.Sprintf("%s (hot path via //iocov:hotpath root %s): %s",
				name, root, fmt.Sprintf(format, args...)),
		})
	}

	owned := ownedRoots(fn)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			flag(x.Pos(), "declares a closure, which allocates")
			return false
		case *ast.GoStmt:
			flag(x.Pos(), "starts a goroutine, which allocates")
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					flag(x.Pos(), "takes the address of a composite literal (heap allocation)")
				}
			}
		case *ast.CompositeLit:
			switch fn.Pkg.Info.Types[x].Type.Underlying().(type) {
			case *types.Map:
				flag(x.Pos(), "map literal allocates")
			case *types.Slice:
				flag(x.Pos(), "slice literal allocates")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(fn.Pkg.Info.Types[x].Type) {
				flag(x.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 &&
				isStringType(fn.Pkg.Info.Types[x.Lhs[0]].Type) {
				flag(x.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			an.scanCall(fn, x, owned, flag)
		}
		return true
	})
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// ownedRoots collects the parameter and receiver objects: buffers rooted at
// them are caller-owned (or fixed receiver storage), so append to them is
// part of the scratch-reuse contract.
func ownedRoots(fn *CGNode) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			if obj := fn.Pkg.Info.Defs[name]; obj != nil {
				owned[obj] = true
			}
		}
	}
	if fn.Decl.Recv != nil {
		for _, f := range fn.Decl.Recv.List {
			addField(f)
		}
	}
	if fn.Decl.Type.Params != nil {
		for _, f := range fn.Decl.Type.Params.List {
			addField(f)
		}
	}
	return owned
}

// scanCall classifies one call: builtin, conversion, denylisted external,
// and interface-boxing arguments. In-module callees need no handling here —
// the call graph already carries reachability.
func (an *allocAnalysis) scanCall(fn *CGNode, call *ast.CallExpr, owned map[types.Object]bool,
	flag func(token.Pos, string, ...interface{})) {

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := fn.Pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				flag(call.Pos(), "make allocates")
			case "new":
				flag(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !rootsAtOwned(fn, call.Args[0], owned) {
					flag(call.Pos(), "append to a buffer not owned by a caller or the receiver may grow")
				}
			}
			return
		}
	}

	// Conversions: string <-> []byte/[]rune copy their data.
	if tv, ok := fn.Pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := fn.Pkg.Info.Types[call.Args[0]].Type
		if src != nil && stringBytesConversion(dst, src.Underlying()) {
			flag(call.Pos(), "string conversion allocates")
		}
		return
	}

	// Resolve a static callee when there is one.
	var calleeObj *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		calleeObj, _ = fn.Pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		calleeObj, _ = fn.Pkg.Info.Uses[fun.Sel].(*types.Func)
	}

	denylisted := false
	if calleeObj != nil && an.g.Node(calleeObj) == nil {
		if reason, bad := externalAllocCall(calleeObj); bad {
			denylisted = true
			flag(call.Pos(), "calls %s, %s", externalCallName(calleeObj), reason)
		}
	}

	// Interface boxing of concrete non-pointer arguments. A denylisted call
	// is already one finding; piling boxing diagnostics on top is noise.
	if sig, ok := callSignature(fn, call); ok && !denylisted {
		checkBoxing(fn, call, sig, flag)
	}
}

// rootsAtOwned walks slice/index/field wrappers down to the root identifier
// and reports whether it is a parameter or the receiver.
func rootsAtOwned(fn *CGNode, e ast.Expr, owned map[types.Object]bool) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			obj := fn.Pkg.Info.Uses[x]
			if obj == nil {
				obj = fn.Pkg.Info.Defs[x]
			}
			return obj != nil && owned[obj]
		default:
			return false
		}
	}
}

// stringBytesConversion reports whether a conversion between dst and src
// copies string data.
func stringBytesConversion(dst, src types.Type) bool {
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// callSignature resolves the signature of a (non-builtin, non-conversion)
// call expression.
func callSignature(fn *CGNode, call *ast.CallExpr) (*types.Signature, bool) {
	tv, ok := fn.Pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return sig, ok
}

// checkBoxing flags arguments whose parameter is interface-typed while the
// argument is a concrete non-pointer value: storing it in the interface
// heap-allocates the value.
func checkBoxing(fn *CGNode, call *ast.CallExpr, sig *types.Signature,
	flag func(token.Pos, string, ...interface{})) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := fn.Pkg.Info.Types[arg].Type
		if at == nil || at == types.Typ[types.UntypedNil] {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // already an interface, or a pointer-shaped value
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		flag(arg.Pos(), "boxes a concrete value into an interface argument")
	}
}

// externalCallName renders pkg.Func or Type.Method for diagnostics.
func externalCallName(obj *types.Func) string {
	sig := obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + obj.Name()
		}
		return obj.Name()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// stringsAllocFuncs are the strings functions that build new strings or
// slices; the searching/testing ones (Contains, HasPrefix, Cut, ...) do not
// allocate and stay allowed.
var stringsAllocFuncs = map[string]bool{
	"Join": true, "Repeat": true, "Split": true, "SplitN": true,
	"SplitAfter": true, "SplitAfterN": true, "Fields": true, "FieldsFunc": true,
	"Replace": true, "ReplaceAll": true, "ToUpper": true, "ToLower": true,
	"ToTitle": true, "Map": true, "Clone": true,
}

// bytesAllocFuncs mirrors stringsAllocFuncs for package bytes.
var bytesAllocFuncs = map[string]bool{
	"Join": true, "Repeat": true, "Split": true, "SplitN": true,
	"Fields": true, "Replace": true, "ReplaceAll": true,
	"ToUpper": true, "ToLower": true, "Clone": true,
}

// externalAllocCall classifies a standard-library call as a known allocator.
// Unknown externals are trusted: the denylist is explicit, not inferred.
func externalAllocCall(obj *types.Func) (string, bool) {
	pkg := obj.Pkg()
	if pkg == nil {
		return "", false
	}
	sig := obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return "", false
		}
		full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
		if full == "strings.Builder" || full == "bytes.Buffer" {
			return "whose buffer grows on the heap", true
		}
		return "", false
	}
	name := obj.Name()
	switch pkg.Path() {
	case "fmt":
		return "which formats through reflection and allocates", true
	case "errors":
		return "which allocates an error value", true
	case "sort":
		return "which allocates closures or boxes its argument", true
	case "regexp":
		return "which compiles or builds a pattern", true
	case "strings":
		if stringsAllocFuncs[name] {
			return "which builds a new string", true
		}
	case "bytes":
		if bytesAllocFuncs[name] {
			return "which builds a new slice", true
		}
	case "strconv":
		if !strings.HasPrefix(name, "Append") && name != "Atoi" &&
			!strings.HasPrefix(name, "Parse") {
			return "which formats into a new string", true
		}
	}
	return "", false
}
