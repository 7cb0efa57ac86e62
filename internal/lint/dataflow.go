package lint

// This file is the dataflow half of the analysis engine: a small forward
// worklist solver over the CFGs that cfg.go builds. Client passes supply
// the lattice (via the Fact interface) and a transfer function; the solver
// iterates block facts to a fixpoint.
//
// The engine is deliberately generic-free and interface-based so that each
// pass defines exactly the fact shape it needs (lockcheck joins held-lock
// sets with intersection for must-facts and union for may-facts) without
// the engine knowing anything about locks.

// Fact is one lattice element flowing along CFG edges.
type Fact interface {
	// Join combines the fact with another path's fact at a merge point,
	// returning a new fact; neither receiver nor argument is mutated.
	Join(other Fact) Fact
	// Equal reports whether two facts are the same lattice element, which
	// is how the solver detects the fixpoint.
	Equal(other Fact) bool
	// Clone returns an independent copy the transfer function may mutate.
	Clone() Fact
}

// TransferFunc computes a block's exit fact from its entry fact. The
// returned fact must be a fresh value (the solver retains it); report is
// false during solving and true during the final reporting pass, so clients
// emit findings exactly once.
type TransferFunc func(b *Block, in Fact, report bool) Fact

// SolveForward runs a forward dataflow analysis: starting from entry at
// Blocks[0], block entry facts are joined over predecessor exit facts and
// transfer is applied until nothing changes. It returns the fixpoint entry
// fact of every reachable block (indexed like CFG.Blocks, nil for blocks
// never reached along any path, e.g. code after an unconditional return).
//
// Termination: facts must form a finite-height lattice (Join monotone);
// every client here joins finite sets derived from the function's source,
// so height is bounded by the lock/annotation vocabulary of the function.
func SolveForward(g *CFG, entry Fact, transfer TransferFunc) []Fact {
	n := len(g.Blocks)
	in := make([]Fact, n)
	out := make([]Fact, n)
	in[0] = entry

	// Worklist seeded with the entry block; indices, deduplicated.
	work := make([]int, 0, n)
	queued := make([]bool, n)
	push := func(i int) {
		if !queued[i] {
			queued[i] = true
			work = append(work, i)
		}
	}
	push(0)
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		queued[i] = false
		b := g.Blocks[i]
		if in[i] == nil {
			continue
		}
		newOut := transfer(b, in[i].Clone(), false)
		if out[i] != nil && out[i].Equal(newOut) {
			continue
		}
		out[i] = newOut
		for _, s := range b.Succs {
			j := s.Index
			var joined Fact
			if in[j] == nil {
				joined = newOut.Clone()
			} else {
				joined = in[j].Join(newOut)
			}
			if in[j] == nil || !in[j].Equal(joined) {
				in[j] = joined
				push(j)
			}
		}
	}
	return in
}

// ReportForward re-applies the transfer function once per reachable block
// with report=true, using the fixpoint entry facts from SolveForward, so the
// client can emit findings against stable facts.
func ReportForward(g *CFG, entryFacts []Fact, transfer TransferFunc) {
	for i, b := range g.Blocks {
		if entryFacts[i] == nil {
			continue
		}
		transfer(b, entryFacts[i].Clone(), true)
	}
}
