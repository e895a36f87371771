package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit every analyzer runs
// over. Files are parsed with comments (the annotation carriers) and Info is
// fully populated, so analyzers resolve identifiers to objects instead of
// matching names textually.
type Package struct {
	// Path is the import path ("decafdrivers/internal/xpc").
	Path string
	// Dir is the absolute directory the files came from.
	Dir string
	// Fset is the module-wide file set (shared across packages).
	Fset *token.FileSet
	// Files are the package's non-test source files, build-tag filtered for
	// the host platform.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the full type-checking results.
	Info *types.Info
	// Ann holds the package's decaf annotations (see annotations.go).
	Ann *Annotations

	mod *Module
}

// Module loads and caches packages of one Go module using only the standard
// library: module-internal import paths resolve by rewriting the module
// prefix onto the module root, everything else goes through the stdlib
// source importer. No golang.org/x/tools dependency, so decafvet builds and
// runs offline.
type Module struct {
	// Root is the absolute module root (the directory holding go.mod).
	Root string
	// ModPath is the module path from go.mod.
	ModPath string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	// loading guards against import cycles during recursive loads.
	loading map[string]bool
	// refs is the module-wide reference index of the unused rule, built
	// on first use.
	refs    *refIndex
	refsErr error
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
		d = parent
	}
}

// LoadModule prepares a loader for the module rooted at root.
func LoadModule(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: read go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	return &Module{
		Root:    abs,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Import implements types.Importer for the type checker: module-internal
// paths load recursively from source; unsafe is the checker's builtin;
// everything else (the standard library) goes through the stdlib source
// importer.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.ModPath || strings.HasPrefix(path, m.ModPath+"/") {
		pkg, err := m.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (m *Module) dirFor(path string) string {
	if path == m.ModPath {
		return m.Root
	}
	return filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(path, m.ModPath+"/")))
}

// Load parses and type-checks one module-internal package (memoized).
func (m *Module) Load(path string) (*Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	dir := m.dirFor(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	files, err := m.parseFiles(dir, bp.GoFiles, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: m}
	tpkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  m.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		mod:   m,
	}
	pkg.Ann = collectAnnotations(pkg)
	m.pkgs[path] = pkg
	return pkg, nil
}

// Packages expands patterns into loaded packages. Three forms are accepted,
// mirroring the go tool: "dir/..." (subtree), "dir" (single package), and
// the bare "..." rooted wildcards like "./...". Paths resolve relative to
// base (typically the caller's working directory) and must land inside the
// module. Wildcard walks skip testdata, hidden and underscore-prefixed
// directories — matching the go tool — while an explicit non-wildcard
// pattern may name a testdata package directly (how the golden tests load
// their fixtures). Directories without buildable Go files are skipped under
// wildcards and are an error when named explicitly.
func (m *Module) Packages(base string, patterns ...string) ([]*Package, error) {
	var out []*Package
	seen := make(map[string]bool)
	add := func(importPath string, explicit bool) error {
		if seen[importPath] {
			return nil
		}
		pkg, err := m.Load(importPath)
		if err != nil {
			if !explicit {
				if _, nogo := isNoGoError(err); nogo {
					return nil
				}
			}
			return err
		}
		seen[importPath] = true
		out = append(out, pkg)
		return nil
	}
	for _, pat := range patterns {
		wild := false
		if strings.HasSuffix(pat, "...") {
			wild = true
			pat = strings.TrimSuffix(pat, "...")
			pat = strings.TrimSuffix(pat, "/")
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		abs := pat
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(base, pat)
		}
		abs = filepath.Clean(abs)
		rel, err := filepath.Rel(m.Root, abs)
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return nil, fmt.Errorf("lint: pattern %q escapes module root %s", pat, m.Root)
		}
		importPath := m.ModPath
		if rel != "." {
			importPath = m.ModPath + "/" + filepath.ToSlash(rel)
		}
		if !wild {
			if err := add(importPath, true); err != nil {
				return nil, err
			}
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			sub, err := filepath.Rel(m.Root, p)
			if err != nil {
				return err
			}
			ip := m.ModPath
			if sub != "." {
				ip = m.ModPath + "/" + filepath.ToSlash(sub)
			}
			return add(ip, false)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// isNoGoError reports whether err wraps go/build's "no buildable Go files"
// condition, unwrapping the loader's annotation.
func isNoGoError(err error) (string, bool) {
	for e := err; e != nil; {
		if _, ok := e.(*build.NoGoError); ok {
			return e.Error(), true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return "", false
		}
		e = u.Unwrap()
	}
	return "", false
}
