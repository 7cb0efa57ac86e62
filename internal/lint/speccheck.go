package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"iocov/internal/partition"
	"iocov/internal/sys"
	"iocov/internal/sysspec"
)

// SpecCheck cross-checks the sysspec base/extended tables against each other
// and against the kernel dispatch:
//
//   - every variant resolves back to its base spec and no variant is claimed
//     twice;
//   - every tracked argument names a real partitioning scheme for its class,
//     and any per-variant restriction names variants the spec actually has;
//   - errno universes are sorted by name, duplicate-free, and never contain
//     the OK sentinel;
//   - every syscall name the kernel dispatch emits resolves to a spec in the
//     extended table (with one level of constant propagation through
//     forwarding helpers like openCommon), and every standard-table variant
//     has a dispatch site;
//   - where an emit site passes its argument pairs as a literal, the keys
//     cover every tracked argument the spec records for that variant.
type SpecCheck struct {
	// KernelPaths are import-path prefixes holding the syscall dispatch.
	KernelPaths []string
	// RequireDispatch enables the reverse check that every standard-table
	// variant has a kernel dispatch site. Fixture targets that do not
	// contain the kernel disable it.
	RequireDispatch bool
}

// NewSpecCheck returns the pass configured for this repository.
func NewSpecCheck() *SpecCheck {
	return &SpecCheck{
		KernelPaths:     []string{"iocov/internal/kernel"},
		RequireDispatch: true,
	}
}

// Name implements Pass.
func (s *SpecCheck) Name() string { return "speccheck" }

// Run implements Pass.
func (s *SpecCheck) Run(t *Target) []Finding {
	var out []Finding
	out = append(out, s.checkTables()...)
	out = append(out, s.checkDispatch(t)...)
	return out
}

// checkTables validates the standard and extended tables' internal
// consistency. Findings carry no source position: the tables are compiled-in
// registries, not syntax.
func (s *SpecCheck) checkTables() []Finding {
	var out []Finding
	add := func(format string, args ...any) {
		out = append(out, Finding{Pass: s.Name(), Message: fmt.Sprintf(format, args...)})
	}
	for _, tbl := range []struct {
		name string
		t    *sysspec.Table
	}{
		{"standard", sysspec.NewTable()},
		{"extended", sysspec.NewExtendedTable()},
	} {
		variantOwner := make(map[string]string)
		for _, base := range tbl.t.Bases() {
			spec := tbl.t.Spec(base)
			if len(spec.Variants) == 0 {
				add("%s table: base %q has no variants", tbl.name, base)
			}
			selfListed := false
			for _, v := range spec.Variants {
				if owner, dup := variantOwner[v]; dup {
					add("%s table: variant %q claimed by both %q and %q", tbl.name, v, owner, base)
				}
				variantOwner[v] = base
				if got := tbl.t.Base(v); got == nil || got.Base != base {
					add("%s table: variant %q does not resolve to base %q", tbl.name, v, base)
				}
				if v == base {
					selfListed = true
				}
			}
			if !selfListed {
				add("%s table: base %q is not one of its own variants %v", tbl.name, base, spec.Variants)
			}
			out = append(out, s.checkArgs(tbl.name, spec)...)
			out = append(out, s.checkErrnos(tbl.name, spec)...)
		}
	}
	return out
}

func (s *SpecCheck) checkArgs(table string, spec *sysspec.Spec) []Finding {
	var out []Finding
	add := func(format string, args ...any) {
		out = append(out, Finding{Pass: s.Name(), Message: fmt.Sprintf(format, args...)})
	}
	variants := make(map[string]bool, len(spec.Variants))
	for _, v := range spec.Variants {
		variants[v] = true
	}
	names := make(map[string]bool, len(spec.Args))
	for i := range spec.Args {
		arg := &spec.Args[i]
		if arg.Name == "" || arg.Key == "" {
			add("%s table: %s arg #%d has empty Name or Key", table, spec.Base, i)
			continue
		}
		if names[arg.Name] {
			add("%s table: %s repeats arg name %q", table, spec.Base, arg.Name)
		}
		names[arg.Name] = true
		in := partition.ForScheme(arg.Scheme)
		if arg.Class == sysspec.Identifier {
			if in != nil {
				add("%s table: %s.%s is an identifier but scheme %q is partitioned",
					table, spec.Base, arg.Name, arg.Scheme)
			}
		} else {
			switch {
			case in == nil:
				add("%s table: %s.%s (%s) names unknown scheme %q",
					table, spec.Base, arg.Name, arg.Class, arg.Scheme)
			case in.Scheme() != arg.Scheme:
				add("%s table: scheme %q reports itself as %q", table, arg.Scheme, in.Scheme())
			}
		}
		for _, v := range arg.Variants {
			if !variants[v] {
				add("%s table: %s.%s restricted to variant %q which %s does not have",
					table, spec.Base, arg.Name, v, spec.Base)
			}
		}
	}
	return out
}

func (s *SpecCheck) checkErrnos(table string, spec *sysspec.Spec) []Finding {
	var out []Finding
	add := func(format string, args ...any) {
		out = append(out, Finding{Pass: s.Name(), Message: fmt.Sprintf(format, args...)})
	}
	seen := make(map[sys.Errno]bool, len(spec.Errnos))
	prev := ""
	for _, e := range spec.Errnos {
		if e == sys.OK {
			add("%s table: %s errno universe contains the OK sentinel", table, spec.Base)
			continue
		}
		if seen[e] {
			add("%s table: %s errno universe repeats %s", table, spec.Base, e.Name())
		}
		seen[e] = true
		if prev != "" && e.Name() < prev {
			add("%s table: %s errno universe out of order: %s after %s",
				table, spec.Base, e.Name(), prev)
		}
		prev = e.Name()
	}
	return out
}

// emitSite is one resolved kernel dispatch site: the syscall name it emits
// and, when the call passes a pair-slice literal, the argument keys it
// records.
type emitSite struct {
	name    string
	pos     token.Pos
	argKeys map[string]bool // nil when the args expression is not a literal
}

// checkDispatch scans the kernel packages for emit calls and cross-checks
// the emitted names and argument keys against the extended table.
func (s *SpecCheck) checkDispatch(t *Target) []Finding {
	var out []Finding
	sites := s.collectEmitSites(t)
	if len(sites) == 0 {
		return nil
	}
	ext := sysspec.NewExtendedTable()
	emitted := make(map[string]bool)
	for _, site := range sites {
		emitted[site.name] = true
		spec := ext.Base(site.name)
		if spec == nil {
			out = append(out, Finding{
				Pass: s.Name(),
				Pos:  t.Position(site.pos),
				Message: fmt.Sprintf("kernel dispatch emits %q, which no sysspec table resolves",
					site.name),
			})
			continue
		}
		if site.argKeys == nil {
			continue
		}
		for _, arg := range spec.TrackedArgs() {
			if !arg.ArgAppliesTo(site.name) {
				continue
			}
			if !site.argKeys[arg.Key] {
				out = append(out, Finding{
					Pass: s.Name(),
					Pos:  t.Position(site.pos),
					Message: fmt.Sprintf("emit site for %q omits tracked argument key %q (%s.%s)",
						site.name, arg.Key, spec.Base, arg.Name),
				})
			}
		}
	}
	if s.RequireDispatch {
		std := sysspec.NewTable()
		var missing []string
		for _, base := range std.Bases() {
			for _, v := range std.Spec(base).Variants {
				if !emitted[v] {
					missing = append(missing, v)
				}
			}
		}
		sort.Strings(missing)
		for _, v := range missing {
			out = append(out, Finding{
				Pass:    s.Name(),
				Message: fmt.Sprintf("standard-table variant %q has no kernel dispatch site", v),
			})
		}
	}
	return out
}

// collectEmitSites finds every call to a function or method named "emit" in
// the kernel packages and resolves the constant syscall name reaching its
// first argument, following one level of forwarding per iteration (e.g.
// openCommon's name parameter) up to a small depth.
func (s *SpecCheck) collectEmitSites(t *Target) []emitSite {
	var sites []emitSite
	for _, pkg := range t.Pkgs {
		if !matchesAny(pkg.Path, s.KernelPaths) {
			continue
		}
		// Parameter object -> (owning function object, parameter index).
		type paramSlot struct {
			fn    types.Object
			index int
		}
		paramOf := make(map[types.Object]paramSlot)
		fnDecls := make(map[types.Object]*ast.FuncDecl)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Type.Params == nil {
					continue
				}
				fnObj := pkg.Info.Defs[fd.Name]
				if fnObj == nil {
					continue
				}
				fnDecls[fnObj] = fd
				idx := 0
				for _, field := range fd.Type.Params.List {
					for _, ident := range field.Names {
						if obj := pkg.Info.Defs[ident]; obj != nil {
							paramOf[obj] = paramSlot{fn: fnObj, index: idx}
						}
						idx++
					}
				}
			}
		}

		// Pending forwarders: functions whose parameter at index feeds an
		// emit name, mapped to the arg-keys expression seen at the emit
		// site (shared by all callers of the forwarder).
		type forward struct {
			slot    paramSlot
			argKeys map[string]bool
		}
		var pending []forward
		seenForward := make(map[paramSlot]bool)

		resolveArg := func(expr ast.Expr, argKeys map[string]bool, pos token.Pos) {
			if v, ok := constString(pkg, expr); ok {
				sites = append(sites, emitSite{name: v, pos: pos, argKeys: argKeys})
				return
			}
			if ident, ok := expr.(*ast.Ident); ok {
				if slot, ok := paramOf[pkg.Info.Uses[ident]]; ok && !seenForward[slot] {
					seenForward[slot] = true
					pending = append(pending, forward{slot: slot, argKeys: argKeys})
				}
			}
		}

		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 || calleeName(call) != "emit" {
					return true
				}
				resolveArg(call.Args[0], literalPairKeys(pkg, call.Args, 3), call.Args[0].Pos())
				return true
			})
		}

		// Propagate constants through forwarders (depth-limited; each round
		// may surface new forwarders one level further out).
		for depth := 0; depth < 3 && len(pending) > 0; depth++ {
			work := pending
			pending = nil
			for _, fw := range work {
				for _, f := range pkg.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok || fw.slot.index >= len(call.Args) {
							return true
						}
						if calleeObject(pkg, call) != fw.slot.fn {
							return true
						}
						arg := call.Args[fw.slot.index]
						resolveArg(arg, fw.argKeys, arg.Pos())
						return true
					})
				}
			}
		}
	}
	return sites
}

// literalPairKeys extracts the constant argument keys of the pair-slice
// literal at args[index] ([]ekv{{"fd", ...}}, the kernel's emit-site
// shape), whose elements are positional composite literals with the key as
// the first field. It returns nil when the expression is absent or not
// such a literal.
func literalPairKeys(pkg *Package, args []ast.Expr, index int) map[string]bool {
	if index >= len(args) {
		return nil
	}
	lit, ok := args[index].(*ast.CompositeLit)
	if !ok {
		return nil
	}
	keys := make(map[string]bool, len(lit.Elts))
	for _, elt := range lit.Elts {
		e, ok := elt.(*ast.CompositeLit)
		if !ok || len(e.Elts) == 0 {
			return nil
		}
		k, ok := constString(pkg, e.Elts[0])
		if !ok {
			return nil
		}
		keys[k] = true
	}
	return keys
}

// calleeName returns the bare name of a call's callee.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	default:
		return ""
	}
}

// calleeObject resolves a call's callee to its type-checker object.
func calleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fn]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fn.Sel]
	default:
		return nil
	}
}

// constString reports the folded string value of an expression, when the
// type checker proved it constant.
func constString(pkg *Package, expr ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// matchesAny reports whether path equals or is nested under any prefix.
func matchesAny(path string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if path == p || (len(path) > len(p) && path[:len(p)] == p && path[len(p)] == '/') {
			return true
		}
	}
	return false
}
