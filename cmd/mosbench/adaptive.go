package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"mosaic/internal/experiment"
	"mosaic/internal/plan"
)

// adaptiveRun is the -adaptive mode: plan every selected pair's sweep
// with the active-learning planner (internal/plan) and report how the
// budget was spent — the error-vs-cost curve, the stop reason, and the
// cost split. With jsonOut, one row per pair including the curve. The
// planner's accuracy/cost contract is enforced by the root package's
// TestAdaptiveContract.
func (b *bench) adaptiveRun(cfg plan.Config, jsonOut bool) error {
	// Every pair plans on a fresh pipeline; a shared trace cache lets them
	// reuse the traces generated once.
	dir := b.runner.TraceDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "mosbench-traces-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	type row struct {
		Workload        string      `json:"workload"`
		Platform        string      `json:"platform"`
		Layouts         int         `json:"layouts"`
		Promotions      int         `json:"promotions"`
		PredictedMaxErr float64     `json:"predicted_max_err"`
		CostRatio       float64     `json:"cost_ratio"`
		Stopped         string      `json:"stopped"`
		Curve           []plan.Step `json:"curve"`
	}
	var rows []row
	for _, w := range b.workloads {
		for _, p := range b.platforms {
			fmt.Fprintf(b.diag, "adaptive: planning %s on %s\n", w.Name(), p.Name)
			r := experiment.NewRunner()
			r.Proto = b.runner.Proto
			r.Parallelism = b.runner.Parallelism
			r.TraceDir = dir
			_, rep, err := plan.Adaptive(context.Background(), r, w, p, cfg, nil, nil)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", w.Name(), p.Name, err)
			}
			rows = append(rows, row{
				Workload: w.Name(), Platform: p.Name,
				Layouts: len(rep.Points), Promotions: rep.Promotions,
				PredictedMaxErr: rep.PredictedMaxErr,
				CostRatio:       rep.CostRatio(),
				Stopped:         rep.Stopped,
				Curve:           rep.Steps,
			})
		}
	}
	if jsonOut {
		enc := json.NewEncoder(b.out)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	for _, r := range rows {
		fmt.Fprintf(b.out, "Adaptive plan: %s on %s\n", r.Workload, r.Platform)
		fmt.Fprintf(b.out, "  %d of %d layouts measured exactly (stop: %s), predicted max err %s, %.1f%% of full-protocol accesses\n",
			r.Promotions, r.Layouts, r.Stopped, pctOrDash(r.PredictedMaxErr), 100*r.CostRatio)
		fmt.Fprintln(b.out, "  round  promoted          pred.err   cost")
		for _, st := range r.Curve {
			name := st.Promoted
			if name == "" {
				name = "(stop)"
			}
			fmt.Fprintf(b.out, "  %5d  %-16s  %8s  %5.1f%%\n",
				st.Round, name, pctOrDash(st.PredictedMaxErr), 100*st.CostRatio)
		}
		fmt.Fprintln(b.out)
	}
	return nil
}

// pctOrDash renders a predicted error, or a dash for the planner's
// "not yet computable" −1 sentinel.
func pctOrDash(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f%%", 100*v)
}
