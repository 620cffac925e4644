package lint

import (
	"go/ast"
)

// DetClock forbids wall-clock reads and the global math/rand generator in
// the simulation core. Replay results must be pure functions of (trace,
// platform, layout, sampling plan): a time.Now in a counter path or an
// unseeded rand.Intn in a protocol makes "bit-identical across
// pooled/sampled replay" unfalsifiable. Scheduler ETA and metrics
// code opts out with a //mosvet:timing directive on the function's doc
// comment; seeded generators (rand.New(rand.NewSource(seed))) are always
// allowed — only the process-global generator is banned.
var DetClock = &Analyzer{
	Name: "detclock",
	Doc:  "forbid time.Now/time.Since and global math/rand in simulation packages (exempt: //mosvet:timing scopes)",
	Run:  runDetClock,
}

// randConstructors build seeded, caller-owned generators: deterministic by
// construction, so not part of the global-generator ban.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runDetClock(p *Package, cfg *Config) []Finding {
	if !pathIn(p.Path, cfg.DetClockPackages) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hasDirective(fd.Doc, "timing") {
				continue // annotated wall-clock scope
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p.Info, call)
				if fn == nil {
					return true
				}
				switch funcPkgPath(fn) {
				case "time":
					if fn.Name() == "Now" || fn.Name() == "Since" {
						out = append(out, p.finding("detclock", call,
							"wall clock (time.%s) in simulation path — results must be pure functions of the trace; annotate the function //mosvet:timing if this is ETA/metrics code", fn.Name()))
					}
				case "math/rand", "math/rand/v2":
					if isPkgLevelFunc(fn) && !randConstructors[fn.Name()] {
						out = append(out, p.finding("detclock", call,
							"global math/rand generator (rand.%s) in simulation path — use a seeded rand.New(rand.NewSource(seed)) owned by the caller", fn.Name()))
					}
				}
				return true
			})
		}
	}
	return out
}
