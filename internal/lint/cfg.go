package lint

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// This file is the control-flow half of lint's flow-sensitive analysis
// engine. BuildCFG lowers one function body into basic blocks connected by
// explicit edges, covering the full Go statement grammar the repository
// uses: if/else chains, all three for-loop forms, range, expression and type
// switches (including fallthrough), select (with and without default),
// labeled break/continue, goto, early return, and explicit panic calls.
//
// Defer is deliberately NOT lowered into edges: a DeferStmt stays in its
// block as an ordinary node, and flow-sensitive passes interpret deferred
// effects themselves (lockcheck applies must-deferred unlocks at every exit
// edge, which is exactly how the runtime behaves on both return and panic).

// Block is one basic block: a maximal straight-line run of statements and
// clause expressions with a single entry point.
type Block struct {
	// Index is the block's position in CFG.Blocks; the entry block is 0.
	Index int
	// Kind labels why the block exists ("entry", "if.then", "for.head",
	// "select.comm", ...), for golden tests and diagnostics.
	Kind string
	// Nodes are the AST nodes evaluated in this block, in execution order.
	// Clause headers (if conditions, switch tags, range operands) appear as
	// expressions; everything else as statements.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
	// Preds are the predecessor blocks (filled after construction).
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every block; Blocks[0] is the entry.
	Blocks []*Block
	// Exit is the synthetic exit block: every return, explicit panic, and
	// the fall-off-the-end path leads here.
	Exit *Block
}

// cfgBuilder accumulates blocks while walking a function body.
type cfgBuilder struct {
	blocks []*Block
	cur    *Block
	exit   *Block
	// loops is the stack of enclosing breakable/continuable constructs.
	loops []loopFrame
	// labels maps a label name to its loop frame (for labeled break and
	// continue) and gotos maps label names to their jump target blocks.
	labels map[string]*loopFrame
	gotos  map[string]*Block
	// pendingGotos are forward gotos waiting for their label to appear.
	pendingGotos map[string][]*Block
	// nextLabel, when set, names the loop frame pushed by the next
	// breakable construct (set by labeledStmt).
	nextLabel string
}

// loopFrame records where break and continue jump for one construct.
type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames (continue skips them)
}

// BuildCFG lowers body (a function or closure body) into a CFG.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		labels:       make(map[string]*loopFrame),
		gotos:        make(map[string]*Block),
		pendingGotos: make(map[string][]*Block),
	}
	entry := b.newBlock("entry")
	b.exit = &Block{Kind: "exit"}
	b.cur = entry
	b.stmtList(body.List)
	// Falling off the end of the body reaches the exit.
	b.edge(b.cur, b.exit)
	b.exit.Index = len(b.blocks)
	b.blocks = append(b.blocks, b.exit)
	g := &CFG{Blocks: b.blocks, Exit: b.exit}
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return g
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.blocks), Kind: kind}
	b.blocks = append(b.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startBlock makes blk current, linking the previous current block to it
// when fall-through is possible.
func (b *cfgBuilder) startBlock(blk *Block, fallFrom *Block) {
	if fallFrom != nil {
		b.edge(fallFrom, blk)
	}
	b.cur = blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt lowers one statement, appending to or splitting the current block.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)

	case *ast.IfStmt:
		if st.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, st.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, st.Cond)
		head := b.cur
		join := b.newBlock("if.join")
		then := b.newBlock("if.then")
		b.startBlock(then, head)
		b.stmtList(st.Body.List)
		b.edge(b.cur, join)
		if st.Else != nil {
			els := b.newBlock("if.else")
			b.startBlock(els, head)
			b.stmt(st.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if st.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, st.Init)
		}
		head := b.newBlock("for.head")
		b.edge(b.cur, head)
		if st.Cond != nil {
			head.Nodes = append(head.Nodes, st.Cond)
		}
		join := b.newBlock("for.join")
		post := head
		if st.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, st.Post)
			b.edge(post, head)
		}
		frame := b.pushLoop(join, post)
		body := b.newBlock("for.body")
		b.startBlock(body, head)
		b.stmtList(st.Body.List)
		b.edge(b.cur, post)
		b.popLoop(frame)
		if st.Cond != nil {
			b.edge(head, join)
		}
		// A cond-less for only reaches join via break; join may be
		// unreachable, which the dataflow engine tolerates.
		b.cur = join

	case *ast.RangeStmt:
		b.cur.Nodes = append(b.cur.Nodes, st.X)
		head := b.newBlock("range.head")
		b.edge(b.cur, head)
		// Key/value bindings happen per iteration; only the binding
		// expressions live in the head (never the whole RangeStmt, which
		// would drag the body's statements into the head block for any
		// pass that walks node subtrees).
		if st.Key != nil {
			head.Nodes = append(head.Nodes, st.Key)
		}
		if st.Value != nil {
			head.Nodes = append(head.Nodes, st.Value)
		}
		join := b.newBlock("range.join")
		b.edge(head, join) // empty collection
		frame := b.pushLoop(join, head)
		body := b.newBlock("range.body")
		b.startBlock(body, head)
		b.stmtList(st.Body.List)
		b.edge(b.cur, head)
		b.popLoop(frame)
		b.cur = join

	case *ast.SwitchStmt:
		if st.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, st.Init)
		}
		if st.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, st.Tag)
		}
		b.switchClauses(st.Body.List, "switch")

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, st.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, st.Assign)
		b.switchClauses(st.Body.List, "typeswitch")

	case *ast.SelectStmt:
		head := b.cur
		join := b.newBlock("select.join")
		frame := b.pushSwitchFrame(join)
		for _, c := range st.Body.List {
			comm := c.(*ast.CommClause)
			kind := "select.comm"
			if comm.Comm == nil {
				kind = "select.default"
			}
			blk := b.newBlock(kind)
			if comm.Comm != nil {
				blk.Nodes = append(blk.Nodes, comm.Comm)
			}
			b.startBlock(blk, head)
			b.stmtList(comm.Body)
			b.edge(b.cur, join)
		}
		if len(st.Body.List) == 0 {
			// select{} blocks forever; model as an edge to exit, keeping the
			// statement in the block so leakcheck can tell this blocking
			// "exit" apart from a genuine return.
			head.Nodes = append(head.Nodes, st)
			b.edge(head, b.exit)
		}
		b.popLoop(frame)
		b.cur = join

	case *ast.LabeledStmt:
		// The label introduces a jump target; record it before lowering the
		// labeled statement so backward gotos and labeled break/continue
		// resolve.
		target := b.newBlock("label." + st.Label.Name)
		b.edge(b.cur, target)
		b.cur = target
		b.gotos[st.Label.Name] = target
		for _, from := range b.pendingGotos[st.Label.Name] {
			b.edge(from, target)
		}
		delete(b.pendingGotos, st.Label.Name)
		b.labeledStmt(st.Label.Name, st.Stmt)

	case *ast.BranchStmt:
		b.branch(st)

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, st)
		b.edge(b.cur, b.exit)
		b.cur = b.newBlock("unreachable")

	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, st)
		if isPanicCall(st.X) {
			b.edge(b.cur, b.exit)
			b.cur = b.newBlock("unreachable")
		}

	default:
		// Assignments, declarations, defer, go, send, incdec, empty: all
		// straight-line.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// labeledStmt lowers the statement under a label, making the label usable by
// break and continue when the statement is a loop, switch, or select.
func (b *cfgBuilder) labeledStmt(label string, s ast.Stmt) {
	switch s.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.nextLabel = label
		b.stmt(s)
		b.nextLabel = ""
	default:
		b.stmt(s)
	}
}

func (b *cfgBuilder) pushLoop(breakTo, continueTo *Block) *loopFrame {
	f := &loopFrame{label: b.nextLabel, breakTo: breakTo, continueTo: continueTo}
	b.nextLabel = ""
	b.loops = append(b.loops, *f)
	if f.label != "" {
		b.labels[f.label] = f
	}
	return f
}

func (b *cfgBuilder) pushSwitchFrame(breakTo *Block) *loopFrame {
	f := &loopFrame{label: b.nextLabel, breakTo: breakTo}
	b.nextLabel = ""
	b.loops = append(b.loops, *f)
	if f.label != "" {
		b.labels[f.label] = f
	}
	return f
}

func (b *cfgBuilder) popLoop(f *loopFrame) {
	b.loops = b.loops[:len(b.loops)-1]
	if f.label != "" {
		delete(b.labels, f.label)
	}
}

// switchClauses lowers the case clauses of an expression or type switch.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, kind string) {
	head := b.cur
	join := b.newBlock(kind + ".join")
	frame := b.pushSwitchFrame(join)

	// Pre-create case blocks so fallthrough can edge to the next clause.
	caseBlocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		k := kind + ".case"
		if cc.List == nil {
			k = kind + ".default"
			hasDefault = true
		}
		caseBlocks[i] = b.newBlock(k)
		b.edge(head, caseBlocks[i])
	}
	if !hasDefault {
		b.edge(head, join)
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.cur.Nodes = append(b.cur.Nodes, e)
		}
		fallsThrough := false
		for _, s := range cc.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
				break
			}
			b.stmt(s)
		}
		if fallsThrough && i+1 < len(caseBlocks) {
			b.edge(b.cur, caseBlocks[i+1])
		} else {
			b.edge(b.cur, join)
		}
	}
	b.popLoop(frame)
	b.cur = join
}

// branch lowers break, continue, goto, and fallthrough (fallthrough is
// handled by switchClauses; seeing one here means a malformed tree, ignored).
func (b *cfgBuilder) branch(st *ast.BranchStmt) {
	switch st.Tok.String() {
	case "break":
		if f := b.branchFrame(st, false); f != nil {
			b.edge(b.cur, f.breakTo)
		}
		b.cur = b.newBlock("unreachable")
	case "continue":
		if f := b.branchFrame(st, true); f != nil && f.continueTo != nil {
			b.edge(b.cur, f.continueTo)
		}
		b.cur = b.newBlock("unreachable")
	case "goto":
		if st.Label != nil {
			if target, ok := b.gotos[st.Label.Name]; ok {
				b.edge(b.cur, target)
			} else {
				b.pendingGotos[st.Label.Name] = append(b.pendingGotos[st.Label.Name], b.cur)
			}
		}
		b.cur = b.newBlock("unreachable")
	}
}

// branchFrame resolves which frame a break/continue targets.
func (b *cfgBuilder) branchFrame(st *ast.BranchStmt, needContinue bool) *loopFrame {
	if st.Label != nil {
		if f, ok := b.labels[st.Label.Name]; ok {
			return f
		}
		return nil
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := &b.loops[i]
		if needContinue && f.continueTo == nil {
			continue // switch/select frames are transparent to continue
		}
		return f
	}
	return nil
}

// isPanicCall reports whether e is a direct call to the predeclared panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Dump renders the CFG as deterministic text for golden tests: one line per
// block with its kind, node count, and successor indices.
func (g *CFG) Dump() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		succs := make([]int, 0, len(blk.Succs))
		for _, s := range blk.Succs {
			succs = append(succs, s.Index)
		}
		sort.Ints(succs)
		parts := make([]string, len(succs))
		for i, n := range succs {
			parts[i] = fmt.Sprintf("%d", n)
		}
		fmt.Fprintf(&sb, "b%d %s n=%d -> [%s]\n",
			blk.Index, blk.Kind, len(blk.Nodes), strings.Join(parts, " "))
	}
	return sb.String()
}
