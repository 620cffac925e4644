// Package lint is mosvet's analysis engine: a stdlib-only static-analysis
// framework (go/parser + go/types with the source importer, zero external
// dependencies) that enforces the repo's project invariants — deterministic
// simulation paths, ordered aggregation, bit-exact float handling, no
// blocking I/O under serving locks, and allocation-free hot kernels.
//
// The analyzers move invariants that golden tests check late and only on
// exercised paths ("counters are bit-identical across pooled/sampled
// replay", "model restore is bit-exact") to compile-time facts: a build
// cannot merge if a simulation path reads the wall clock or a result
// aggregation ranges over an unsorted map.
//
// Findings are suppressed inline with
//
//	//mosvet:ignore <check>[,<check>...] <reason>
//
// on the finding's line or the line above it. The reason text is mandatory:
// an ignore directive without one is itself reported. Two scope directives
// annotate functions via their doc comment: //mosvet:timing marks a function
// as a legitimate wall-clock scope (scheduler ETA, serve metrics) for the
// detclock check, and //mosvet:hotpath opts a function into the hot-path
// hygiene check.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Check   string
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string // import path within the module
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	decls map[*types.Func]*ast.FuncDecl // lazy FuncDecl index, see funcDecl
}

// Analyzer is one named check. Per-package analyzers set Run; analyzers
// whose facts span packages (lock ordering) set
// RunModule instead and receive every package at once.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Package, *Config) []Finding
	RunModule func([]*Package, *Config) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetClock,
		MapOrder,
		FloatEq,
		HotPath,
		LockOrder,
		PhaseBound,
	}
}

// AnalyzerNames returns the names of every registered analyzer.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Run executes the configured analyzers over the packages and returns the
// unsuppressed findings sorted by position. Suppression directives that are
// missing reason text are reported as findings of the pseudo-check "mosvet"
// (they cannot be suppressed).
func Run(pkgs []*Package, cfg *Config) []Finding {
	out, _ := RunInventory(pkgs, cfg)
	return out
}

// RunInventory is Run plus the module's exemption inventory: every
// //mosvet:ignore and timing directive found in the
// analyzed packages, in deterministic order. The inventory is what the
// committed suppression-audit baseline pins — a new exemption changes the
// inventory and fails the baseline guard until it is re-generated (and
// thereby reviewed) in the same change.
func RunInventory(pkgs []*Package, cfg *Config) ([]Finding, []Suppression) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	dir := collectDirectives(pkgs)
	var raw []Finding
	for _, a := range Analyzers() {
		if !cfg.CheckEnabled(a.Name) {
			continue
		}
		if a.RunModule != nil {
			raw = append(raw, a.RunModule(pkgs, cfg)...)
			continue
		}
		for _, p := range pkgs {
			raw = append(raw, a.Run(p, cfg)...)
		}
	}
	var out []Finding
	for _, f := range raw {
		if !dir.suppressed(f) {
			out = append(out, f)
		}
	}
	out = append(out, dir.malformed...)
	sortFindings(out)
	return out, dir.inventory
}

func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}

// directivePrefix is the comment marker shared by all mosvet directives.
const directivePrefix = "//mosvet:"

// Suppression is one exemption directive in the analyzed source: an inline
// //mosvet:ignore or a //mosvet:timing clock scope.
// The set of suppressions is the audit surface the committed baseline pins.
type Suppression struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Directive string   `json:"directive"`
	Checks    []string `json:"checks,omitempty"` // ignore: the suppressed checks
	Reason    string   `json:"reason,omitempty"`
}

// directiveKinds is the full directive vocabulary; anything else after
// "//mosvet:" is a typo and is reported (a misspelled directive that
// silently does nothing is worse than no directive).
var directiveKinds = map[string]bool{
	"ignore": true, "timing": true, "hotpath": true,
}

// inventoried marks the directive kinds that are exemptions from an
// invariant (and therefore belong in the audit baseline). hotpath opts
// *into* stricter checking, so it is not an exemption.
var inventoried = map[string]bool{
	"ignore": true, "timing": true,
}

// directives is the module-wide index of every mosvet comment directive:
// the suppression map consulted when filtering findings, the exemption
// inventory, and the malformed-directive findings.
type directives struct {
	// byLine maps filename → line → checks ignored at that line.
	byLine    map[string]map[int][]string
	malformed []Finding
	inventory []Suppression
}

// collectDirectives scans every comment in every package. An ignore
// directive suppresses matching findings on its own line (trailing comment)
// and on the line directly below it (leading comment). The index is
// module-wide: module-level analyzers anchor findings in whichever package
// declares the violated contract, and the shared FileSet keeps filenames
// unambiguous.
func collectDirectives(pkgs []*Package) *directives {
	s := &directives{byLine: make(map[string]map[int][]string)}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					s.one(p, c)
				}
			}
		}
	}
	sort.Slice(s.inventory, func(i, j int) bool {
		a, b := s.inventory[i], s.inventory[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return s
}

func (s *directives) one(p *Package, c *ast.Comment) {
	text, ok := strings.CutPrefix(c.Text, directivePrefix)
	if !ok {
		return
	}
	pos := p.Fset.Position(c.Pos())
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return
	}
	kind := fields[0]
	args := fields[1:]
	if !directiveKinds[kind] {
		s.malformed = append(s.malformed, Finding{
			Check: "mosvet", Pos: pos,
			Message: fmt.Sprintf("unknown directive mosvet:%s", kind),
		})
		return
	}
	sup := Suppression{File: pos.Filename, Line: pos.Line, Directive: kind}
	switch kind {
	case "ignore":
		if len(args) == 0 {
			s.malformed = append(s.malformed, Finding{
				Check: "mosvet", Pos: pos,
				Message: "mosvet:ignore without a check name",
			})
			return
		}
		sup.Checks = strings.Split(args[0], ",")
		if len(args) < 2 {
			s.malformed = append(s.malformed, Finding{
				Check: "mosvet", Pos: pos,
				Message: fmt.Sprintf("mosvet:ignore %s without a reason — justify the suppression", args[0]),
			})
			return
		}
		sup.Reason = strings.Join(args[1:], " ")
	default:
		sup.Reason = strings.Join(args, " ")
	}
	if kind == "ignore" {
		lines := s.byLine[pos.Filename]
		if lines == nil {
			lines = make(map[int][]string)
			s.byLine[pos.Filename] = lines
		}
		lines[pos.Line] = append(lines[pos.Line], sup.Checks...)
	}
	if inventoried[kind] {
		s.inventory = append(s.inventory, sup)
	}
}

func (s *directives) suppressed(f Finding) bool {
	lines := s.byLine[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, c := range lines[line] {
			if c == f.Check {
				return true
			}
		}
	}
	return false
}

// funcDecl returns the FuncDecl defining fn in this package, building the
// index lazily on first use (only the module-level analyzers need it).
func (p *Package) funcDecl(fn *types.Func) *ast.FuncDecl {
	if p.decls == nil {
		p.decls = make(map[*types.Func]*ast.FuncDecl)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						p.decls[obj] = fd
					}
				}
			}
		}
	}
	return p.decls[fn]
}

// directiveArgs returns the whitespace-split arguments of a
// //mosvet:<name> directive in a doc comment, or nil when the directive is
// absent (an argument-less directive returns an empty non-nil slice).
func directiveArgs(doc *ast.CommentGroup, name string) []string {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, directivePrefix+name)
		if !ok {
			continue
		}
		if text == "" {
			return []string{}
		}
		if text[0] == ' ' || text[0] == '\t' {
			return strings.Fields(text)
		}
	}
	return nil
}

// hasDirective reports whether a function's doc comment carries the given
// //mosvet:<name> directive (trailing explanation text is allowed).
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, directivePrefix+name)
		if !ok {
			continue
		}
		if text == "" || text[0] == ' ' || text[0] == '\t' {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcPkgPath returns the import path of the package a function belongs to
// ("" for builtins and error.Error-style universe methods).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isPkgLevelFunc reports whether fn is a package-level function (not a
// method): the distinction between rand.Intn (global generator, forbidden in
// sim paths) and (*rand.Rand).Intn (seeded instance, allowed).
func isPkgLevelFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

func (p *Package) position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// finding builds a Finding at the given node for the given check.
func (p *Package) finding(check string, node ast.Node, format string, args ...any) Finding {
	return Finding{Check: check, Pos: p.position(node.Pos()), Message: fmt.Sprintf(format, args...)}
}
