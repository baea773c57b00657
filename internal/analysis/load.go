package analysis

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

// Package is one loaded, type-checked module package.
type Package struct {
	// Path is the import path ("repro/internal/sim").
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Fset is shared across every package a Loader produces.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo records types and object resolution for every expression.
	TypesInfo *types.Info
	// Root marks a package loaded only to root the unused analyzer's
	// reachability: a nested module that imports this one, such as the
	// benchmark harness. Its calls count as uses; it is not linted.
	Root bool
}

// Loader parses and type-checks packages of a single module using only
// the standard library: module-internal imports are resolved
// recursively from source, everything else (stdlib) goes through the
// go/importer source importer.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	std        types.Importer
	cache      map[string]*Package
	loading    map[string]bool
	// extra holds packages registered by CheckSource under synthetic
	// import paths, so later CheckSource calls can import them — the
	// mechanism behind multi-package call-graph fixtures.
	extra map[string]*types.Package
}

// NewLoader locates the enclosing module of dir (by walking up to
// go.mod) and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePathOf(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleRoot: root,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      map[string]*Package{},
		loading:    map[string]bool{},
		extra:      map[string]*types.Package{},
	}, nil
}

// modulePathOf extracts the module path from a go.mod file.
func modulePathOf(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves patterns into type-checked packages. Supported forms:
// "./..." (every package under the module root), "dir/..." (a
// subtree), and plain directories ("./internal/sim"). A pattern that
// spans the whole module also loads its Root packages. Results are
// sorted by import path and deduplicated.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	seen := map[string]bool{}
	var pkgs []*Package
	whole := false
	add := func(dir string) error {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return err
		}
		if pkg == nil || seen[pkg.Path] {
			return nil
		}
		seen[pkg.Path] = true
		pkgs = append(pkgs, pkg)
		return nil
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "/...")
		if base == "" || base == "." {
			base = l.moduleRoot
		}
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.moduleRoot, base)
		}
		if !recursive {
			if err := add(base); err != nil {
				return nil, err
			}
			continue
		}
		if base == l.moduleRoot && !whole {
			whole = true
			roots, err := l.loadRoots()
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, roots...)
		}
		dirs, err := packageDirs(base)
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			if err := add(d); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// loadRoots loads every nested module under the module root (a
// directory with its own go.mod) as one Root package: all of its
// top-level .go files, tests included, type-checked together under the
// nested module's path.
func (l *Loader) loadRoots() ([]*Package, error) {
	var roots []*Package
	err := filepath.WalkDir(l.moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == l.moduleRoot {
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor" {
			return filepath.SkipDir
		}
		modPath, err := modulePathOf(filepath.Join(path, "go.mod"))
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := l.ParseFile(filepath.Join(path, e.Name()), nil)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		if len(files) > 0 {
			pkg, err := l.check(modPath, files)
			if err != nil {
				return err
			}
			pkg.Dir, pkg.Root = path, true
			roots = append(roots, pkg)
		}
		return filepath.SkipDir
	})
	return roots, err
}

// packageDirs walks root collecting directories that hold non-test Go
// sources, skipping hidden, underscore, testdata, and vendor trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		srcs, err := goSources(path)
		if err != nil {
			return err
		}
		if len(srcs) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// goSources lists dir's non-test .go files, sorted.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var srcs []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		srcs = append(srcs, filepath.Join(dir, name))
	}
	sort.Strings(srcs)
	return srcs, nil
}

// Import implements types.Importer so module packages can depend on
// each other; stdlib paths fall through to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.extra[path]; ok {
		return pkg, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.moduleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go sources in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// loadDir parses and type-checks one package directory, caching the
// result. A directory with no non-test sources yields (nil, nil).
func (l *Loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.moduleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.moduleRoot)
	}
	path := l.modulePath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	srcs, err := goSources(abs)
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		l.cache[path] = nil
		return nil, nil
	}
	var files []*ast.File
	for _, src := range srcs {
		f, err := parser.ParseFile(l.fset, src, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	pkg.Dir = abs
	l.cache[path] = pkg
	return pkg, nil
}

// check type-checks files as the package at path using this loader for
// import resolution.
func (l *Loader) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := &types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:      path,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// ParseFile parses one file into the loader's shared FileSet.
func (l *Loader) ParseFile(filename string, src any) (*ast.File, error) {
	return parser.ParseFile(l.fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
}
