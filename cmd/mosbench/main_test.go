package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/plan"
	"mosaic/internal/workloads"
)

// quickBench builds a bench over the 9-layout quick protocol with captured
// writers, restricted to the fastest workload so tests stay in the
// sub-second range.
func quickBench(t *testing.T) (*bench, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	w, err := workloads.ByName("gups/8GB")
	if err != nil {
		t.Fatal(err)
	}
	out, diag := &bytes.Buffer{}, &bytes.Buffer{}
	b := &bench{
		runner:    experiment.NewRunner(),
		workloads: []workloads.Workload{w},
		platforms: []arch.Platform{arch.SandyBridge},
		out:       out,
		diag:      diag,
	}
	b.runner.Proto = experiment.Quick
	return b, out, diag
}

// TestExportJSONStdoutPure pins the writer split: with -json, stdout must
// hold exactly one parseable JSON document — every progress line, stage
// summary, and exclusion note goes to stderr. A consumer piping
// `mosbench -json > data.json` depends on this.
func TestExportJSONStdoutPure(t *testing.T) {
	b, out, diag := quickBench(t)
	if err := b.exportJSON(); err != nil {
		t.Fatal(err)
	}
	var doc []struct {
		Workload, Platform string
		TLBSensitive       bool
	}
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("stdout is not pure JSON: %v\nstdout: %q", err, out.String())
	}
	if dec.More() {
		t.Fatalf("stdout holds content after the JSON document: %q", out.String())
	}
	if len(doc) != 1 || doc[0].Workload != "gups/8GB" {
		t.Fatalf("decoded %+v", doc)
	}
	// The sweep's progress narration went to the diagnostic writer.
	if !strings.Contains(diag.String(), "workers=") {
		t.Errorf("no progress lines on the diagnostic stream: %q", diag.String())
	}
}

// TestFigureOutputSplit: rendering a figure puts the table on out and the
// stage-time summary on diag, with no cross-leakage of progress markers.
func TestFigureOutputSplit(t *testing.T) {
	b, out, diag := quickBench(t)
	if err := b.figure("2b"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 2b") || !strings.Contains(out.String(), "mosmodel") {
		t.Errorf("figure table missing from out: %q", out.String())
	}
	if strings.Contains(out.String(), "workers=") || strings.Contains(out.String(), "stage ") {
		t.Errorf("progress/stage diagnostics leaked into out: %q", out.String())
	}
	if !strings.Contains(diag.String(), "stage ") {
		t.Errorf("stage-time summary missing from diag: %q", diag.String())
	}
}

// TestAdaptiveRunQuick: the -adaptive mode on the quick protocol plans a
// real sweep and emits one JSON row per pair with a monotone-cost curve.
func TestAdaptiveRunQuick(t *testing.T) {
	b, out, _ := quickBench(t)
	if err := b.adaptiveRun(plan.Config{MaxPromotions: 3}, true); err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Workload   string  `json:"workload"`
		Layouts    int     `json:"layouts"`
		Promotions int     `json:"promotions"`
		CostRatio  float64 `json:"cost_ratio"`
		Stopped    string  `json:"stopped"`
		Curve      []struct {
			CostAccesses uint64 `json:"costAccesses"`
		} `json:"curve"`
	}
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatalf("adaptive JSON: %v\n%s", err, out.String())
	}
	if len(rows) != 1 || rows[0].Workload != "gups/8GB" {
		t.Fatalf("rows %+v", rows)
	}
	r := rows[0]
	if r.Promotions != 3 || r.Stopped != "budget" {
		t.Errorf("promotions %d stop %q, want 3 exact measurements to exhaust the budget", r.Promotions, r.Stopped)
	}
	if r.CostRatio <= 0 || r.CostRatio >= 1 {
		t.Errorf("cost ratio %.3f outside (0, 1)", r.CostRatio)
	}
	if len(r.Curve) == 0 {
		t.Fatal("no error-vs-budget curve")
	}
	for i := 1; i < len(r.Curve); i++ {
		if r.Curve[i].CostAccesses < r.Curve[i-1].CostAccesses {
			t.Errorf("curve cost decreased at round %d", i)
		}
	}
}
