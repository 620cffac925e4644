package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"mosaic/internal/binfmt"
	"mosaic/internal/report"
)

// BENCH_history.json is the repo's append-only performance ledger: one row
// per PR, written by the CI bench job, read back by -check-regression to
// gate the next PR. Keeping the whole history (rather than only the last
// run) makes slow drifts visible — a sequence of 9% slowdowns each passes
// the gate, but the file shows the trend.

// benchRow is one PR's tracked metrics. Zero values mean "not measured by
// that PR" (e.g. windowed replay predates nothing before PR 6) and are
// skipped by the regression gate.
type benchRow struct {
	PR int `json:"pr"`
	// Cores records the host parallelism behind the timings; speedup-type
	// metrics are only comparable between rows with the same core count.
	Cores int `json:"cores,omitempty"`
	// SweepMs is BenchmarkSweepQuick's per-iteration wall time.
	SweepMs float64 `json:"sweep_ms,omitempty"`
	// SampledSpeedup is the -sample-report replay speedup (exact/sampled).
	SampledSpeedup float64 `json:"sampled_speedup,omitempty"`
	// WorstSigErr is the -sample-report worst relative error over
	// statistically significant counters (the ≤1% accuracy contract).
	WorstSigErr float64 `json:"worst_sig_err,omitempty"`
	// WindowedSpeedup is BenchmarkSweepQuickWindowed's -windows K speedup
	// over -windows 1 (bounded by Cores).
	WindowedSpeedup float64 `json:"windowed_speedup,omitempty"`
	// TraceLoadMs is the wall time of loading the cached gups/8GB trace
	// (the serve daemon's cold-start dominator).
	TraceLoadMs float64 `json:"trace_load_ms,omitempty"`
	// PredictP99Ms is the serve layer's p99 /v1/predict latency under the
	// concurrent-load test.
	PredictP99Ms float64 `json:"predict_p99_ms,omitempty"`
	// AdaptiveCostRatio is the planned sweep's measured-access cost
	// relative to the full exact protocol (the -adaptive-report bake-off,
	// worst pair). Gated absolutely against adaptiveCostCap, not
	// relatively: the ratio is a contract, not a trend.
	AdaptiveCostRatio float64 `json:"adaptive_cost_ratio,omitempty"`
	// ClusterSpeedup is the distributed sweep fabric's 2-worker wall time
	// advantage over the same sweep on 1 worker (BENCH_cluster.json). Like
	// WindowedSpeedup it is bounded by Cores — a 1-core host records the
	// fabric's coordination overhead (< 1×) honestly.
	ClusterSpeedup float64 `json:"cluster_speedup,omitempty"`
	// PhaseMaxErr is the -phase-report worst significant per-phase relative
	// error in percent (BENCH_phases.json phase_maxerr_pct). Gated
	// absolutely against phaseMaxErrBound like WorstSigErr: the per-phase
	// accuracy contract is a bound, not a trend.
	PhaseMaxErr float64 `json:"phase_maxerr_pct,omitempty"`
}

// regressionTol is the gate: a tracked metric may degrade by at most this
// fraction between consecutive rows.
const regressionTol = 0.10

// sigErrBound is the absolute ceiling for WorstSigErr — the sampled
// accuracy contract's 1% bound. Relative comparison is wrong for an error
// metric (a 0.1% → 0.12% change is noise, not a regression), so the gate
// checks the contract instead.
const sigErrBound = 0.01

// adaptiveCostBound is the absolute ceiling for AdaptiveCostRatio — the
// adaptive bake-off's cost contract: a planned sweep spends at most a
// third of the full protocol's measured accesses.
const adaptiveCostBound = 1.0 / 3.0

// phaseMaxErrBound is the absolute ceiling for PhaseMaxErr, in percent —
// the per-phase restatement of the 1% accuracy contract.
const phaseMaxErrBound = 1.0

// loadHistory reads the ledger; a missing file is an empty history.
func loadHistory(path string) ([]benchRow, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rows []benchRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("history %s: %w", path, err)
	}
	return rows, nil
}

// appendHistory appends one row and rewrites the ledger through
// binfmt.WriteFileAtomic, like every cache file in the repo.
func appendHistory(path string, row benchRow) error {
	rows, err := loadHistory(path)
	if err != nil {
		return err
	}
	if row.Cores == 0 {
		row.Cores = runtime.NumCPU()
	}
	rows = append(rows, row)
	raw, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return binfmt.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
}

// checkRegression compares the ledger's last row against the previous one
// and returns one message per violated gate. Lower-is-better metrics
// (sweep time) may grow by at most regressionTol; higher-is-better metrics
// (speedups) may shrink by at most regressionTol; the worst significant
// error must stay within the accuracy contract's absolute bound. Metrics
// absent (zero) in either row are skipped — a PR that didn't re-measure a
// metric neither passes nor fails it. Speedups are additionally skipped
// when the two rows ran on different core counts, where the comparison is
// meaningless.
func checkRegression(rows []benchRow) []string {
	var out []string
	if n := len(rows); n >= 1 {
		cur := rows[n-1]
		if cur.WorstSigErr > sigErrBound {
			out = append(out, fmt.Sprintf(
				"PR %d: worst significant sampled error %.4f%% exceeds the %.0f%% accuracy contract",
				cur.PR, 100*cur.WorstSigErr, 100*sigErrBound))
		}
		if cur.AdaptiveCostRatio > adaptiveCostBound {
			out = append(out, fmt.Sprintf(
				"PR %d: adaptive sweep cost ratio %.3f exceeds the %.3f contract",
				cur.PR, cur.AdaptiveCostRatio, adaptiveCostBound))
		}
		if cur.PhaseMaxErr > phaseMaxErrBound {
			out = append(out, fmt.Sprintf(
				"PR %d: worst per-phase significant error %.4f%% exceeds the %.0f%% accuracy contract",
				cur.PR, cur.PhaseMaxErr, phaseMaxErrBound))
		}
		if n >= 2 {
			prev := rows[n-2]
			for _, m := range []struct {
				name      string
				prev, cur float64
			}{
				{"quick sweep", prev.SweepMs, cur.SweepMs},
				{"trace load", prev.TraceLoadMs, cur.TraceLoadMs},
				{"predict p99", prev.PredictP99Ms, cur.PredictP99Ms},
			} {
				if m.prev <= 0 || m.cur <= 0 {
					continue
				}
				if m.cur > m.prev*(1+regressionTol) {
					out = append(out, fmt.Sprintf(
						"PR %d: %s %.1fms is %.0f%% slower than PR %d's %.1fms (gate: %.0f%%)",
						cur.PR, m.name, m.cur, 100*(m.cur/m.prev-1), prev.PR, m.prev, 100*regressionTol))
				}
			}
			comparable := prev.Cores == cur.Cores
			for _, m := range []struct {
				name       string
				prev, cur  float64
				coresBound bool
			}{
				{"sampled replay speedup", prev.SampledSpeedup, cur.SampledSpeedup, false},
				{"windowed replay speedup", prev.WindowedSpeedup, cur.WindowedSpeedup, true},
				{"cluster sweep speedup", prev.ClusterSpeedup, cur.ClusterSpeedup, true},
			} {
				if m.prev <= 0 || m.cur <= 0 || (m.coresBound && !comparable) {
					continue
				}
				if m.cur < m.prev*(1-regressionTol) {
					out = append(out, fmt.Sprintf(
						"PR %d: %s %.2f× is %.0f%% below PR %d's %.2f× (gate: %.0f%%)",
						cur.PR, m.name, m.cur, 100*(1-m.cur/m.prev), prev.PR, m.prev, 100*regressionTol))
				}
			}
		}
	}
	return out
}

// runCheckRegression is the -check-regression entry point: print the
// verdict and fail (for CI) when any gate is violated.
func runCheckRegression(path string, out io.Writer) error {
	rows, err := loadHistory(path)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		fmt.Fprintf(out, "check-regression: %s has no rows, nothing to gate\n", path)
		return nil
	}
	violations := checkRegression(rows)
	if len(violations) == 0 {
		fmt.Fprintf(out, "check-regression: PR %d within %.0f%% of PR history (%d rows)\n",
			rows[len(rows)-1].PR, 100*regressionTol, len(rows))
		return nil
	}
	for _, v := range violations {
		fmt.Fprintln(out, "check-regression:", v)
	}
	return fmt.Errorf("%d tracked metric(s) regressed", len(violations))
}

// historySeries converts the ledger rows to per-metric trajectories,
// dropping unmeasured (zero) cells so early PRs don't render as dips to
// zero.
func historySeries(rows []benchRow) []report.TrajectorySeries {
	metrics := []struct {
		name, unit string
		get        func(benchRow) float64
	}{
		{"quick sweep wall time", "ms", func(r benchRow) float64 { return r.SweepMs }},
		{"sampled replay speedup", "x", func(r benchRow) float64 { return r.SampledSpeedup }},
		{"windowed replay speedup", "x", func(r benchRow) float64 { return r.WindowedSpeedup }},
		{"trace load", "ms", func(r benchRow) float64 { return r.TraceLoadMs }},
		{"predict p99 latency", "ms", func(r benchRow) float64 { return r.PredictP99Ms }},
		{"adaptive sweep cost ratio", "", func(r benchRow) float64 { return r.AdaptiveCostRatio }},
		{"cluster sweep speedup", "x", func(r benchRow) float64 { return r.ClusterSpeedup }},
		{"per-phase max error", "%", func(r benchRow) float64 { return r.PhaseMaxErr }},
	}
	var out []report.TrajectorySeries
	for _, m := range metrics {
		s := report.TrajectorySeries{Name: m.name, Unit: m.unit}
		for _, r := range rows {
			if v := m.get(r); v > 0 {
				s.Points = append(s.Points, report.TrajectoryPoint{PR: r.PR, Value: v})
			}
		}
		if len(s.Points) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// runHistorySVG is the -history-svg entry point: render the ledger as a
// stacked-panel trajectory chart, one panel per tracked metric.
func runHistorySVG(historyPath, svgPath string, out io.Writer) error {
	rows, err := loadHistory(historyPath)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("history-svg: %s has no rows to render", historyPath)
	}
	svg := report.SVGTrajectory("mosaic performance trajectory", historySeries(rows), 760)
	if err := os.WriteFile(svgPath, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "history-svg: rendered %d ledger rows into %s\n", len(rows), svgPath)
	return nil
}

// runAppendRow is the -append-row entry point: rowJSON is one benchRow
// object, typically assembled by the CI bench job from the benchmark and
// sample-report outputs.
func runAppendRow(path, rowJSON string, out io.Writer) error {
	var row benchRow
	dec := json.NewDecoder(strings.NewReader(rowJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&row); err != nil {
		return fmt.Errorf("append-row: %w", err)
	}
	if row.PR <= 0 {
		return fmt.Errorf("append-row: row needs a positive \"pr\"")
	}
	if err := appendHistory(path, row); err != nil {
		return err
	}
	fmt.Fprintf(out, "append-row: recorded PR %d in %s\n", row.PR, path)
	return nil
}
