package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShardCheck guards shard isolation: the worker-path packages (the harness,
// the suites it shards, the evolve loop) and the iocovd daemon, which
// merges sessions concurrently, write no package-level variable. State
// shared across shards or sessions is a data race, and a race can corrupt
// the merged counts.
//
// It is the one determinism rule kept in lint, because no test catches it
// in every run: the -race lane misses a one-time lazy initialization that
// later synchronization orders, and it never sees writes made through
// clear (DESIGN.md §16). Wall-clock reads, the global RNG and map order are
// left to the byte-identity tests, which catch each of them every time.
//
// A package-level variable declared with //iocov:shared-ok <reason> is
// exempt: the annotation asserts the sharing is synchronized and
// value-deterministic (a mutex-guarded cache whose contents do not depend
// on interleaving). The reason is mandatory; a reasonless directive is
// itself a finding.
type ShardCheck struct {
	// Paths are the import-path prefixes of the checked packages.
	Paths []string
}

// NewShardCheck returns the pass configured for this repository.
func NewShardCheck() *ShardCheck {
	return &ShardCheck{Paths: []string{
		"iocov/internal/evolve", "iocov/internal/harness", "iocov/internal/server", "iocov/internal/suites",
	}}
}

// Name implements Pass.
func (s *ShardCheck) Name() string { return "shardcheck" }

// Run implements Pass.
func (s *ShardCheck) Run(t *Target) []Finding {
	var out []Finding
	for _, pkg := range t.Pkgs {
		if !matchesAny(pkg.Path, s.Paths) {
			continue
		}
		exempt, annFindings := s.sharedOKVars(t, pkg)
		out = append(out, annFindings...)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						out = append(out, s.checkWrite(t, pkg, exempt, lhs)...)
					}
				case *ast.IncDecStmt:
					out = append(out, s.checkWrite(t, pkg, exempt, st.X)...)
				}
				return true
			})
		}
	}
	return out
}

// sharedOKVars collects the package-level variables whose declarations
// carry a reasoned //iocov:shared-ok directive, plus findings for
// reasonless directives.
func (s *ShardCheck) sharedOKVars(t *Target, pkg *Package) (map[*types.Var]bool, []Finding) {
	var exempt map[*types.Var]bool
	var out []Finding
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, reason := range sharedOKReasons(gd.Doc, vs.Doc, vs.Comment) {
					if reason == "" {
						out = append(out, Finding{
							Pass:    s.Name(),
							Pos:     t.Position(vs.Pos()),
							Message: "iocov:shared-ok requires a reason stating why the sharing preserves the parallel-vs-serial contract",
						})
						continue
					}
					for _, name := range vs.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							if exempt == nil {
								exempt = make(map[*types.Var]bool)
							}
							exempt[v] = true
						}
					}
				}
			}
		}
	}
	return exempt, out
}

// sharedOKReasons returns the reason of every //iocov:shared-ok directive in
// the comment groups, "" for a directive that gives none. It is the one
// //iocov: annotation form; like go:build, the directive must start the
// comment line.
func sharedOKReasons(groups ...*ast.CommentGroup) []string {
	var out []string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			rest, ok := strings.CutPrefix(c.Text, "//iocov:shared-ok")
			if ok && (rest == "" || rest[0] == ' ') {
				out = append(out, strings.TrimSpace(rest))
			}
		}
	}
	return out
}

// checkWrite flags an assignment target rooted in a package-level variable
// not exempted by //iocov:shared-ok.
func (s *ShardCheck) checkWrite(t *Target, pkg *Package, exempt map[*types.Var]bool, expr ast.Expr) []Finding {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.SelectorExpr:
			// pkgname.Var writes resolve through the selector itself; field
			// selectors resolve through the receiver expression instead.
			if v := packageLevelVar(pkg, e.Sel); v != nil {
				if exempt[v] {
					return nil
				}
				return s.writeFinding(t, pkg, e.Sel, v)
			}
			expr = e.X
		case *ast.Ident:
			if v := packageLevelVar(pkg, e); v != nil {
				if exempt[v] {
					return nil
				}
				return s.writeFinding(t, pkg, e, v)
			}
			return nil
		default:
			return nil
		}
	}
}

func (s *ShardCheck) writeFinding(t *Target, pkg *Package, at *ast.Ident, v *types.Var) []Finding {
	return []Finding{{
		Pass: s.Name(),
		Pos:  t.Position(at.Pos()),
		Message: fmt.Sprintf(
			"worker path writes package-level variable %q; shared state breaks the parallel-vs-serial snapshot contract",
			v.Name()),
	}}
}

// packageLevelVar resolves an identifier to a package-scoped variable, or
// nil when it names anything else.
func packageLevelVar(pkg *Package, ident *ast.Ident) *types.Var {
	obj := pkg.Info.Uses[ident]
	if obj == nil {
		obj = pkg.Info.Defs[ident]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}
