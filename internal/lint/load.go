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
	"sync"
)

// Loader parses and type-checks the module's packages using only the
// standard library: module-internal imports are resolved by walking the
// source tree, everything else goes through the compiler's source importer.
// Test files are not loaded — test code may use the clock, compare floats,
// and iterate maps freely; the invariants guard production paths.
type Loader struct {
	fset    *token.FileSet
	std     types.Importer
	root    string            // module root directory
	module  string            // module path from go.mod
	dirs    map[string]string // module import path → directory
	pkgs    map[string]*Package
	loading map[string]bool // import-cycle guard
}

// NewLoader builds a loader for the module rooted at (or above) dir.
func NewLoader(dir string) (*Loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		fset:    token.NewFileSet(),
		root:    root,
		module:  module,
		dirs:    make(map[string]string),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// scan indexes every directory in the module that contains Go files.
func (l *Loader) scan() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return fmt.Errorf("lint: %s: %w", path, err)
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		imp := l.module
		if rel != "." {
			imp = l.module + "/" + filepath.ToSlash(rel)
		}
		l.dirs[imp] = path
		return nil
	})
}

// LoadAll type-checks every package in the module and returns them sorted
// by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.loadModulePkg(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Import implements types.Importer: module packages come from source in
// this loader (so their positions land in the shared FileSet), everything
// else from the standard source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		pkg, err := l.loadModulePkg(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// relPath converts a module import path to the module-relative form used by
// Config ("." for the root package).
func (l *Loader) relPath(imp string) string {
	if imp == l.module {
		return "."
	}
	return strings.TrimPrefix(imp, l.module+"/")
}

func (l *Loader) loadModulePkg(imp string) (*Package, error) {
	if pkg, ok := l.pkgs[imp]; ok {
		return pkg, nil
	}
	if l.loading[imp] {
		return nil, fmt.Errorf("lint: import cycle through %s", imp)
	}
	l.loading[imp] = true
	defer func() { l.loading[imp] = false }()

	dir := l.dirs[imp]
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", imp, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", imp, err)
		}
		files = append(files, f)
	}
	pkg, err := CheckPackage(l.relPath(imp), imp, l.fset, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[imp] = pkg
	return pkg, nil
}

// CheckPackage type-checks parsed files into an analysis-ready Package.
// relPath is the module-relative path used for Config scoping; imp is the
// full import path handed to go/types.
func CheckPackage(relPath, imp string, fset *token.FileSet, files []*ast.File, imports types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imports}
	tpkg, err := conf.Check(imp, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", imp, err)
	}
	return &Package{Path: relPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// AnalyzeModule loads the module at dir and runs the configured analyzers
// over every package — the in-process equivalent of `mosvet ./...`.
func AnalyzeModule(dir string, cfg *Config) ([]Finding, error) {
	res, err := AnalyzeModuleFull(dir, cfg)
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}

// ModuleResult is a full module analysis: the findings, the exemption
// inventory the suppression-audit baseline pins, and the module root for
// relativizing file paths in machine-readable output.
type ModuleResult struct {
	Root         string
	Findings     []Finding
	Suppressions []Suppression
}

// AnalyzeModuleFull is AnalyzeModule plus the exemption inventory and
// module root — the entry point for mosvet's baseline gate.
func AnalyzeModuleFull(dir string, cfg *Config) (*ModuleResult, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	findings, sups := RunInventory(pkgs, cfg)
	return &ModuleResult{Root: l.root, Findings: findings, Suppressions: sups}, nil
}

// sharedSrc is the process-wide fset+importer AnalyzeSource runs on: one
// importer means each stdlib package is source-type-checked once per
// process, not once per synthetic test package. Guarded by sharedSrcMu —
// go/types drives the importer during Check, which is not concurrency-safe.
var (
	sharedSrcMu   sync.Mutex
	sharedSrcFset *token.FileSet
	sharedSrcImp  types.Importer
)

// AnalyzeSource type-checks a single synthetic package given as
// filename → source (the analyzer tests' txtar-style corpus) and runs the
// suite over it. relPath scopes the package for Config (e.g. "internal/sim"
// to exercise detclock). Imports resolve through the standard source
// importer, so the synthetic sources may use the stdlib freely.
func AnalyzeSource(relPath string, sources map[string]string, cfg *Config) ([]Finding, error) {
	return AnalyzeSourcePackages(map[string]map[string]string{relPath: sources}, cfg)
}

// AnalyzeSourcePackages type-checks a set of synthetic packages
// (module-relative path → filename → source) that may import each other
// via "synthetic/<relPath>" import paths, and runs the suite over all of
// them at once — the harness for the cross-package analyzers' tests.
// Filenames are prefixed with their package path so suppression
// directives never collide across packages.
func AnalyzeSourcePackages(pkgSources map[string]map[string]string, cfg *Config) ([]Finding, error) {
	sharedSrcMu.Lock()
	defer sharedSrcMu.Unlock()
	if sharedSrcFset == nil {
		sharedSrcFset = token.NewFileSet()
		sharedSrcImp = importer.ForCompiler(sharedSrcFset, "source", nil)
	}
	s := &srcLoader{
		fset:    sharedSrcFset,
		std:     sharedSrcImp,
		srcs:    pkgSources,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	rels := make([]string, 0, len(pkgSources))
	for rel := range pkgSources {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	var pkgs []*Package
	for _, rel := range rels {
		pkg, err := s.load(rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return Run(pkgs, cfg), nil
}

// srcLoader resolves "synthetic/<relPath>" imports between in-memory test
// packages; everything else falls through to the shared source importer.
type srcLoader struct {
	fset    *token.FileSet
	std     types.Importer
	srcs    map[string]map[string]string
	pkgs    map[string]*Package
	loading map[string]bool
}

const syntheticPrefix = "synthetic/"

func (s *srcLoader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, syntheticPrefix)
	if !ok {
		return s.std.Import(path)
	}
	pkg, err := s.load(rel)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func (s *srcLoader) load(rel string) (*Package, error) {
	if pkg, ok := s.pkgs[rel]; ok {
		return pkg, nil
	}
	if s.loading[rel] {
		return nil, fmt.Errorf("lint: import cycle through synthetic package %s", rel)
	}
	sources, ok := s.srcs[rel]
	if !ok {
		return nil, fmt.Errorf("lint: unknown synthetic package %s", rel)
	}
	s.loading[rel] = true
	defer func() { s.loading[rel] = false }()
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, rel+"/"+name, sources[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := CheckPackage(rel, syntheticPrefix+rel, s.fset, files, s)
	if err != nil {
		return nil, err
	}
	s.pkgs[rel] = pkg
	return pkg, nil
}
