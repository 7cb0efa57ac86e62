package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural half of the analysis engine: a
// package-spanning call graph over every function the Target loaded, built
// once per Target for alloccheck's hot-path reachability.
//
// Edges are static only: the callee is a named function or a method called
// on a concrete receiver, which go/types resolves exactly. Calls through an
// interface or a function value add no edge; alloccheck treats them as
// annotation boundaries (the implementation carries its own annotation).

// CallSite is one edge of the call graph: a call expression in Caller that
// transfers control to Callee.
type CallSite struct {
	Caller *CGNode
	Callee *CGNode
	// Pos locates the call expression in the caller's body.
	Pos token.Pos
}

// CGNode is one declared function (or method) with a body.
type CGNode struct {
	// Obj is the type-checker's object for the function.
	Obj *types.Func
	// Pkg and Decl locate the declaration.
	Pkg  *Package
	Decl *ast.FuncDecl
	// FA carries the function's //iocov: annotations.
	FA funcAnnotations
	// Out holds the edges leaving the node, in source order of their call
	// sites.
	Out []*CallSite
}

// Name renders the node as "Recv.Name" or "Name" for diagnostics.
func (n *CGNode) Name() string { return funcDisplayName(n.Decl) }

// CallGraph is the module-wide call graph of one Target.
type CallGraph struct {
	nodes map[*types.Func]*CGNode
	// sorted is every node in declaration-position order, for deterministic
	// iteration.
	sorted []*CGNode
}

// CallGraph returns the Target's call graph, building it on first use.
func (t *Target) CallGraph() *CallGraph {
	if t.cg == nil {
		t.cg = BuildCallGraph(t)
	}
	return t.cg
}

// Node returns the graph node for a function object, or nil for externals
// and bodyless declarations.
func (g *CallGraph) Node(f *types.Func) *CGNode { return g.nodes[f] }

// Nodes returns every node in declaration order.
func (g *CallGraph) Nodes() []*CGNode { return g.sorted }

// Reachable walks the graph from roots, following an edge only when follow
// returns true (nil follows everything), and returns the set of visited
// functions including the roots themselves.
func (g *CallGraph) Reachable(roots []*types.Func, follow func(*CallSite) bool) map[*types.Func]bool {
	seen := make(map[*types.Func]bool)
	var queue []*CGNode
	for _, r := range roots {
		if n := g.nodes[r]; n != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if follow != nil && !follow(e) {
				continue
			}
			if !seen[e.Callee.Obj] {
				seen[e.Callee.Obj] = true
				queue = append(queue, e.Callee)
			}
		}
	}
	return seen
}

// BuildCallGraph constructs the call graph for a loaded target.
func BuildCallGraph(t *Target) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*CGNode)}

	// One node per declared function with a body, then its call edges.
	for _, pkg := range t.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[obj] = &CGNode{
					Obj: obj, Pkg: pkg, Decl: fd, FA: parseFuncAnnotations(fd),
				}
			}
		}
	}
	for _, n := range g.nodes {
		g.sorted = append(g.sorted, n)
	}
	sort.Slice(g.sorted, func(i, j int) bool {
		return g.sorted[i].Decl.Pos() < g.sorted[j].Decl.Pos()
	})

	for _, n := range g.sorted {
		g.addEdges(n)
	}
	return g
}

// addEdges walks one function body and appends its outgoing call sites.
// Calls inside closures (FuncLit) belong to the enclosing declaration: the
// closure runs with the declaration's dynamic extent for every analysis
// built on this graph.
func (g *CallGraph) addEdges(n *CGNode) {
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch x := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			// A method selected on an interface has no single callee.
			sel, isSel := info.Selections[x]
			if isSel && sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()) {
				return true
			}
			id = x.Sel
		default:
			return true
		}
		obj, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if callee := g.nodes[obj]; callee != nil {
			n.Out = append(n.Out, &CallSite{Caller: n, Callee: callee, Pos: call.Pos()})
		}
		return true
	})
}
