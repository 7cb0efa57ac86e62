package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked repository package.
type Package struct {
	// Path is the import path, e.g. "iocov/internal/partition".
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the resolved identifiers and folded constants.
	Info *types.Info
}

// Target is a loaded set of packages the passes analyze, sharing one
// token.FileSet.
type Target struct {
	Fset *token.FileSet
	// Pkgs is sorted by import path.
	Pkgs []*Package

	byPath map[string]*Package
	// cg is the lazily built module call graph (see callgraph.go), shared
	// by every whole-program pass of one run.
	cg *CallGraph
}

// Package returns the loaded package with the given import path, or nil.
func (t *Target) Package(path string) *Package { return t.byPath[path] }

// Position resolves a token.Pos against the target's file set.
func (t *Target) Position(p token.Pos) token.Position { return t.Fset.Position(p) }

// LoadRepo loads and type-checks every non-test package under root, which
// must contain a go.mod naming the module. Directories named "testdata",
// hidden directories, and _test.go files are skipped, matching the go tool.
func LoadRepo(root string) (*Target, error) {
	module, err := moduleName(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		name := fi.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		p, err := parseDir(fset, dir, path)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	return typecheck(fset, pkgs)
}

// LoadPackages loads and type-checks the given directories as standalone
// packages with synthetic import paths (their directory base names). The
// packages may import the standard library but not each other; lint's
// fixture tests load known-bad sources this way.
func LoadPackages(dirs ...string) (*Target, error) {
	fset := token.NewFileSet()
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := parseDir(fset, dir, filepath.Base(dir))
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: no Go source in %s", dir)
		}
		pkgs = append(pkgs, p)
	}
	return typecheck(fset, pkgs)
}

// moduleName extracts the module path from root's go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// parseDir parses the non-test Go files of one directory, returning nil when
// the directory holds no Go source.
func parseDir(fset *token.FileSet, dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// ParseComments keeps doc and line comments in the AST: the CFG-based
		// passes read the //iocov: annotation grammar (guarded-by, locked,
		// hotpath, coldpath) from them.
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return &Package{Path: path, Dir: dir, Files: files}, nil
}

// typecheck type-checks the parsed packages in dependency order. Standard
// library imports resolve through the compiler's source importer; module
// imports resolve to the packages being checked.
func typecheck(fset *token.FileSet, pkgs []*Package) (*Target, error) {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		if byPath[p.Path] != nil {
			return nil, fmt.Errorf("lint: duplicate package path %q", p.Path)
		}
		byPath[p.Path] = p
	}
	imp := &chainImporter{
		std:     importer.ForCompiler(fset, "source", nil),
		checked: make(map[string]*types.Package),
	}
	// Topological order over module-internal imports.
	order, err := topoSort(pkgs, byPath)
	if err != nil {
		return nil, err
	}
	for _, p := range order {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.Path, fset, p.Files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", p.Path, err)
		}
		p.Types = tpkg
		p.Info = info
		imp.checked[p.Path] = tpkg
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return &Target{Fset: fset, Pkgs: pkgs, byPath: byPath}, nil
}

// chainImporter serves already-checked module packages, falling back to the
// standard library source importer.
type chainImporter struct {
	std     types.Importer
	checked map[string]*types.Package
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.checked[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// topoSort orders packages so that every module-internal import precedes its
// importer.
func topoSort(pkgs []*Package, byPath map[string]*Package) ([]*Package, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(pkgs))
	var order []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p.Path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %q", p.Path)
		}
		state[p.Path] = visiting
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				if dep := byPath[path]; dep != nil {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		state[p.Path] = done
		order = append(order, p)
		return nil
	}
	// Deterministic traversal order.
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, p := range sorted {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
