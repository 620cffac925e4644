package lint

import (
	"go/ast"
	"go/types"
)

// HotPath enforces hygiene in functions annotated //mosvet:hotpath — the
// per-access replay kernels (the sim driver/Measure, Hierarchy.Access, the
// Translate memo) whose cost is multiplied by every access of every layout
// of every sweep. Inside an annotated function: no defer (per-call overhead
// and hidden unlock ordering), no fmt calls (variadic any boxing allocates
// on the hot path), no map literals or make(map) (hash-table allocation per
// call — hoist to construction), and no interface-converting conversions
// (each one is a potential heap allocation per access). Cold error paths
// inside a kernel use typed errors (lazily formatted) instead of
// fmt.Errorf; genuinely cold code inside an annotated function takes a
// //mosvet:ignore hotpath with the justification.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid defer, fmt, map allocation, and interface conversions in //mosvet:hotpath functions",
	Run:  runHotPath,
}

func runHotPath(p *Package, cfg *Config) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "hotpath") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.DeferStmt:
					out = append(out, p.finding("hotpath", n,
						"defer in hot path — per-call overhead; restructure for explicit cleanup"))
				case *ast.CompositeLit:
					if t := p.Info.TypeOf(n); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							out = append(out, p.finding("hotpath", n,
								"map literal in hot path — allocates a hash table per call; hoist to construction"))
						}
					}
				case *ast.CallExpr:
					out = append(out, hotPathCall(p, n)...)
				}
				return true
			})
		}
	}
	return out
}

func hotPathCall(p *Package, call *ast.CallExpr) []Finding {
	var out []Finding
	// make(map[...]...) allocates per call.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" && len(call.Args) > 0 {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			if t := p.Info.TypeOf(call.Args[0]); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					out = append(out, p.finding("hotpath", call,
						"make(map) in hot path — allocates a hash table per call; hoist to construction"))
				}
			}
		}
	}
	if fn := calleeFunc(p.Info, call); fn != nil && funcPkgPath(fn) == "fmt" {
		out = append(out, p.finding("hotpath", call,
			"fmt.%s in hot path — variadic any boxing allocates; use a typed error or move formatting off the kernel", fn.Name()))
	}
	// Conversion of a concrete value to an interface type: T(x) where T is
	// an interface — the boxing can heap-allocate on every call.
	if tv, ok := p.Info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) {
			if at := p.Info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) {
				out = append(out, p.finding("hotpath", call,
					"interface-converting allocation in hot path — boxing %s into %s may heap-allocate per call", at, tv.Type))
			}
		}
	}
	return out
}
