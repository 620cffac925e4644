// Command mosvet is the repo's project-invariant static analyzer: it
// type-checks the whole module (stdlib-only — go/parser + go/types with the
// source importer) and enforces the determinism, locking, and phase
// contracts the simulation and serving tiers rest on.
//
// Checks (see docs/static-analysis.md for rationale and examples):
//
//	detclock    no time.Now/time.Since/global math/rand in simulation packages
//	maporder    no result-feeding iteration over unsorted maps
//	floateq     no ==/!= on float operands
//	hotpath     no defer/fmt/map-alloc/interface-boxing in //mosvet:hotpath kernels
//	lockorder   no mutex acquisition cycles, and no blocking operation or
//	            transitively-blocking call while a serve mutex is held
//	phasebound  no raw trace.Phase construction outside the trace package
//
// Usage:
//
//	mosvet [-checks detclock,lockorder] [-dir .]
//	       [-baseline mosvet-baseline.json | -write-baseline mosvet-baseline.json]
//	       [packages]
//
// Package patterns are accepted for `go vet`-style invocation compatibility
// (`go run ./cmd/mosvet ./...`) but the tool always analyzes the entire
// module enclosing -dir: the invariants are module-wide, and partial runs
// would let a violation hide in an unlisted package.
//
// Exit status: 0 when clean, 1 on findings or a stale baseline, 2 on
// load/typecheck errors. Suppress an individual finding with
// `//mosvet:ignore <check> <reason>` on the finding's line or the line
// above; the reason text is mandatory, and every exemption directive must
// also appear in the committed suppression-audit baseline (-baseline) —
// regenerate it with -write-baseline after triaging a new suppression.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mosaic/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mosvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		checks        = fs.String("checks", "", "comma-separated subset of checks to run (default: all of "+strings.Join(lint.AnalyzerNames(), ",")+")")
		dir           = fs.String("dir", ".", "directory inside the module to analyze")
		list          = fs.Bool("list", false, "list registered checks and exit")
		verbose       = fs.Bool("v", false, "print load/analysis timing to stderr")
		baseline      = fs.String("baseline", "", "verify the exemption inventory against this committed suppression-audit baseline file; any drift fails the run")
		writeBaseline = fs.String("write-baseline", "", "regenerate the suppression-audit baseline into this file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cfg := lint.DefaultConfig()
	if *checks != "" {
		cfg.Checks = strings.Split(*checks, ",")
		for _, c := range cfg.Checks {
			if !knownCheck(c) {
				fmt.Fprintf(stderr, "mosvet: unknown check %q (have %s)\n", c, strings.Join(lint.AnalyzerNames(), ", "))
				return 2
			}
		}
	}

	start := time.Now()
	res, err := lint.AnalyzeModuleFull(*dir, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "mosvet: %v\n", err)
		return 2
	}
	if *verbose {
		fmt.Fprintf(stderr, "mosvet: analyzed module in %v\n", time.Since(start).Round(time.Millisecond))
	}

	if *writeBaseline != "" {
		b := lint.NewBaseline(res)
		if err := b.WriteFile(*writeBaseline); err != nil {
			fmt.Fprintf(stderr, "mosvet: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "mosvet: wrote %d exemption(s) to %s\n", len(b.Suppressions), *writeBaseline)
		return 0
	}

	for _, f := range res.Findings {
		fmt.Fprintln(stdout, f)
	}
	failed := false
	if len(res.Findings) > 0 {
		fmt.Fprintf(stderr, "mosvet: %d finding(s)\n", len(res.Findings))
		failed = true
	}
	if *baseline != "" {
		drift, err := lint.VerifyBaseline(*baseline, res)
		if err != nil {
			fmt.Fprintf(stderr, "mosvet: %v\n", err)
			return 2
		}
		for _, d := range drift {
			fmt.Fprintln(stdout, d)
		}
		if len(drift) > 0 {
			fmt.Fprintf(stderr, "mosvet: suppression-audit baseline is stale (%d mismatch(es)) — review the exemptions, then regenerate with -write-baseline %s\n", len(drift), *baseline)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

func knownCheck(name string) bool {
	for _, n := range lint.AnalyzerNames() {
		if n == name {
			return true
		}
	}
	return false
}
