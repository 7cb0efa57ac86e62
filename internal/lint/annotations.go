package lint

import (
	"go/ast"
	"strings"
)

// The //iocov: annotation grammar ties source comments to the
// whole-program passes. Three forms exist; shared-ok is parsed by
// shardcheck directly, the rest here:
//
//	//iocov:hotpath                   on a function: the function is a
//	                                  zero-allocation root; it and everything
//	                                  statically reachable from it must not
//	                                  allocate (alloccheck).
//	//iocov:coldpath                  on a function: an acknowledged slow
//	                                  path (one-time compilation, option-
//	                                  gated features); alloccheck traversal
//	                                  stops here.
//	//iocov:shared-ok <reason>        on a package-level var declaration: the
//	                                  variable is deliberately shared across
//	                                  worker goroutines and writes to it are
//	                                  exempt from shardcheck. The reason must
//	                                  state why sharing preserves the
//	                                  parallel-vs-serial contract (e.g. a
//	                                  mutex-guarded grow-only cache whose
//	                                  contents do not depend on interleaving)
//	                                  and is mandatory.
//
// Annotations live in doc comments. The directive must start the comment
// line, matching the convention of go:build and friends.

const annotationPrefix = "//iocov:"

// annotationsIn extracts the iocov directives from a comment group: each
// entry is the text after "//iocov:", e.g. "hotpath".
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
	hotpath  bool
	coldpath bool
}

// parseFuncAnnotations reads a function declaration's doc comment.
func parseFuncAnnotations(fd *ast.FuncDecl) funcAnnotations {
	var fa funcAnnotations
	for _, a := range annotationsIn(fd.Doc) {
		directive, _, _ := strings.Cut(a, " ")
		switch directive {
		case "hotpath":
			fa.hotpath = true
		case "coldpath":
			fa.coldpath = true
		}
	}
	return fa
}
