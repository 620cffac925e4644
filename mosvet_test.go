package mosaic

import (
	"testing"

	"mosaic/internal/lint"
)

// TestMosvetClean runs the mosvet analyzer suite in-process over the whole
// module, so `go test ./...` (tier-1) catches invariant regressions —
// wall-clock reads in simulation paths, unsorted map iteration feeding
// results, raw float equality, blocking I/O under serving locks, hot-path
// hygiene, lock ordering, and phase
// ownership — without waiting for the dedicated CI job. This is
// the same load-and-analyze path `go run ./cmd/mosvet ./...` exercises.
func TestMosvetClean(t *testing.T) {
	res, err := lint.AnalyzeModuleFull(".", lint.DefaultConfig())
	if err != nil {
		t.Fatalf("mosvet load: %v", err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
	if len(res.Findings) > 0 {
		t.Fatalf("mosvet: %d finding(s) — fix them or add a justified //mosvet:ignore (see docs/static-analysis.md)", len(res.Findings))
	}

	// The committed suppression-audit baseline must match the exemption
	// directives actually present in the tree: a suppression added without
	// regenerating the baseline (or a baseline entry whose directive was
	// deleted) is a review-bypass and fails here.
	drift, err := lint.VerifyBaseline("mosvet-baseline.json", res)
	if err != nil {
		t.Fatalf("mosvet baseline: %v", err)
	}
	for _, d := range drift {
		t.Errorf("%s", d)
	}
	if len(drift) > 0 {
		t.Fatalf("mosvet: suppression-audit baseline is stale (%d mismatch(es)) — review the exemptions, then regenerate with `go run ./cmd/mosvet -write-baseline mosvet-baseline.json`", len(drift))
	}
}
