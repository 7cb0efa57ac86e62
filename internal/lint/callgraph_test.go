package lint

import (
	"go/types"
	"strings"
	"testing"
)

// graphNode finds a node by its display name in the fixture graph.
func graphNode(t *testing.T, g *CallGraph, name string) *CGNode {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Name() == name {
			return n
		}
	}
	t.Fatalf("call graph has no node %q", name)
	return nil
}

// calleeNames renders a node's outgoing edges as callee names.
func calleeNames(n *CGNode) []string {
	var out []string
	for _, e := range n.Out {
		out = append(out, e.Callee.Name())
	}
	return out
}

func TestCallGraphEdges(t *testing.T) {
	g := fixtureTarget(t, "callgraph").CallGraph()

	cases := []struct {
		node string
		want []string
	}{
		{"helperA", []string{"leaf"}},
		{"helperB", []string{"dog.speak"}},
		// Interface and func-value dispatch are annotation boundaries.
		{"viaInterface", nil},
		{"viaFuncValue", nil},
		{"even", []string{"odd"}},
		{"odd", []string{"even"}},
		{"launcher", []string{"helperA", "leaf", "viaInterface"}},
		// takeAddr returns leaf as a value: no call edge.
		{"takeAddr", nil},
	}
	for _, c := range cases {
		got := calleeNames(graphNode(t, g, c.node))
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%s edges = %v, want %v", c.node, got, c.want)
		}
	}
}

func TestCallGraphReachable(t *testing.T) {
	g := fixtureTarget(t, "callgraph").CallGraph()

	launcher := graphNode(t, g, "launcher")

	// Following every edge: launcher reaches its go, defer and plain
	// callees, but not through the interface call.
	all := g.Reachable([]*types.Func{launcher.Obj}, nil)
	for _, want := range []string{"launcher", "helperA", "leaf", "viaInterface"} {
		if !all[graphNode(t, g, want).Obj] {
			t.Errorf("launcher should reach %s following all edges", want)
		}
	}
	for _, not := range []string{"dog.speak", "cat.speak", "even"} {
		if all[graphNode(t, g, not).Obj] {
			t.Errorf("launcher should not reach %s", not)
		}
	}

	// A filtered traversal stops at the edges follow rejects.
	pruned := g.Reachable([]*types.Func{launcher.Obj}, func(e *CallSite) bool {
		return e.Callee.Name() != "helperA"
	})
	if pruned[graphNode(t, g, "helperA").Obj] {
		t.Error("filtered traversal should not reach helperA")
	}
	if !pruned[graphNode(t, g, "leaf").Obj] {
		t.Error("filtered traversal should still reach leaf through the defer site")
	}
}
