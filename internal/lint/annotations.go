package lint

import (
	"go/ast"
	"strings"
)

// The //iocov: annotation grammar ties source comments to the flow-sensitive
// passes. Seven forms exist; shared-ok is parsed by shardcheck directly,
// the rest here:
//
//	//iocov:guarded-by <mutexField>   on a struct field: the field may only
//	                                  be accessed while the named sibling
//	                                  mutex field is held (lockcheck).
//	//iocov:locked <recv>.<path>      on a function: callers are required to
//	                                  hold the named lock at entry, e.g.
//	                                  "fs.mu" on a method with receiver fs
//	                                  (lockcheck).
//	//iocov:hotpath                   on a function: the function is a
//	                                  zero-allocation root; it and everything
//	                                  statically reachable from it must not
//	                                  allocate (alloccheck).
//	//iocov:coldpath                  on a function: an acknowledged slow
//	                                  path (one-time compilation, option-
//	                                  gated features); alloccheck traversal
//	                                  stops here.
//	//iocov:bounded-by <reason>       on a function, or on the line of (or
//	                                  directly above) a go statement: the
//	                                  launched goroutine's lifetime is bounded
//	                                  by the stated external fact (process
//	                                  exit, server shutdown) that leakcheck's
//	                                  CFG reasoning cannot see. The reason is
//	                                  mandatory.
//	//iocov:shared-ok <reason>        on a package-level var declaration: the
//	                                  variable is deliberately shared across
//	                                  worker goroutines and writes to it are
//	                                  exempt from shardcheck. The reason must
//	                                  state why sharing preserves the
//	                                  parallel-vs-serial contract (e.g. a
//	                                  sync.Once write of a value derived only
//	                                  from constants) and is mandatory.
//	//iocov:deterministic             on a function: a determinism root. The
//	                                  function and everything statically
//	                                  reachable from it must be byte-stable —
//	                                  no wall clock, no global RNG, no map
//	                                  iteration order leaking into results,
//	                                  no goroutine completion order
//	                                  (determcheck).
//
// Annotations live in doc comments (and, for struct fields, trailing line
// comments). The directive must start the comment line, matching the
// convention of go:build and friends.

const annotationPrefix = "//iocov:"

// annotationsIn extracts the iocov directives from a comment group: each
// entry is the text after "//iocov:", e.g. "guarded-by mu".
func annotationsIn(groups ...*ast.CommentGroup) []string {
	var out []string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if rest, ok := strings.CutPrefix(c.Text, annotationPrefix); ok {
				out = append(out, strings.TrimSpace(rest))
			}
		}
	}
	return out
}

// funcAnnotations describes the directives on one function declaration.
type funcAnnotations struct {
	hotpath       bool
	coldpath      bool
	deterministic bool
	// boundedBy holds the reason text of an //iocov:bounded-by directive;
	// empty means the function carries none.
	boundedBy string
	// locked holds the lock expressions from //iocov:locked directives,
	// e.g. "fs.mu" (one directive per lock).
	locked []string
}

// parseFuncAnnotations reads a function declaration's doc comment.
func parseFuncAnnotations(fd *ast.FuncDecl) funcAnnotations {
	var fa funcAnnotations
	for _, a := range annotationsIn(fd.Doc) {
		directive, arg, _ := strings.Cut(a, " ")
		switch directive {
		case "hotpath":
			fa.hotpath = true
		case "coldpath":
			fa.coldpath = true
		case "deterministic":
			fa.deterministic = true
		case "bounded-by":
			if arg = strings.TrimSpace(arg); arg != "" {
				fa.boundedBy = arg
			}
		case "locked":
			if arg = strings.TrimSpace(arg); arg != "" {
				fa.locked = append(fa.locked, arg)
			}
		}
	}
	return fa
}

// fieldGuardAnnotation returns the mutex field named by a field's
// //iocov:guarded-by directive, or "" when the field carries none.
func fieldGuardAnnotation(f *ast.Field) string {
	for _, a := range annotationsIn(f.Doc, f.Comment) {
		directive, arg, _ := strings.Cut(a, " ")
		if directive == "guarded-by" {
			return strings.TrimSpace(arg)
		}
	}
	return ""
}
