// Package plan implements adaptive sweep planning: an active-learning
// loop that spends exact-measurement budget where model error lives
// instead of uniformly across the layout protocol.
//
// The paper's 54-layout protocol (§VI-B) measures every layout at equal
// fidelity, but Mosmodel's error is concentrated in a few regions of the
// (H, M, C) space. The planner therefore (1) probes every protocol
// layout with sampled replay at an aggressive period — a whole-surface
// sketch for ~a tenth of the access cost — then (2) scores each
// still-cheap layout by how badly K-fold refits predict it (held-out
// residual) and how much the fitted polynomial wobbles there across
// folds (per-term coefficient instability), (3) promotes the
// highest-uncertainty layout to an exact measurement, and (4) stops when
// the cross-validated predicted max error drops under a target or the
// promotion budget runs out. Fidelity where it matters, imitation
// elsewhere.
//
// Everything is deterministic: folds and the layout protocol are seeded,
// ties break on sorted layout names, and replay itself is bit-exact — so
// a planned sweep is reproducible coefficient-for-coefficient.
package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"mosaic/internal/layout"
	"mosaic/internal/models"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
	"mosaic/internal/stats"
)

// Measurer is the planner's measurement substrate: replay a set of
// layouts at a chosen fidelity and report what one exact replay costs.
// experiment.PairMeasurer implements it over the real pipeline; tests
// substitute synthetic surfaces.
type Measurer interface {
	// Measure replays lays at sampling fidelity s (zero value = exact)
	// and returns one result per layout, in layout order.
	Measure(ctx context.Context, lays []layout.Layout, s sim.Sampling) ([]sim.Result, error)
	// TraceLen is the trace length in accesses — the cost of one exact
	// layout measurement.
	TraceLen() uint64
}

// DefaultProbe is the aggressive sampling plan for the seed pass: ~9% of
// the accesses of an exact replay on the bundled trace lengths, enough
// to sketch the whole (H, M, C) surface before any exact spend.
var DefaultProbe = sim.Sampling{
	Period:      16384,
	MeasureLen:  1024,
	WarmupLen:   2048,
	PrologueLen: 4096,
}

// Config tunes one planner run. The zero value is usable: default probe
// fidelity, 5 folds, a promotion budget of one fifth of the protocol,
// and no error target (budget-driven).
type Config struct {
	// ErrorTarget stops the loop once the cross-validated predicted max
	// relative error falls to or below it (0 = never stop on error).
	ErrorTarget float64
	// MaxPromotions bounds exact measurements, anchors included
	// (0 = len(layouts)/5, min 1).
	MaxPromotions int
	// Folds is the K of the K-fold scoring fits (0 = 5; clamped to the
	// training-point count by stats.KFoldIndices).
	Folds int
	// Seed drives fold assignment. Same seed + budget ⇒ same promotion
	// sequence and bit-identical coefficients.
	Seed int64
	// ProbeSampling is the cheap seed fidelity (zero value = DefaultProbe).
	ProbeSampling sim.Sampling
	// LambdaRel is the scoring fits' Lasso penalty relative to the
	// standard deviation of the runtime samples (0 = 0.01).
	LambdaRel float64
	// Anchors are layout names promoted to exact before any scoring
	// (they count against MaxPromotions). Adaptive defaults them to the
	// 4KB/2MB baselines, which pin the training hull's corners and the
	// prior models' anchor points.
	Anchors []string
}

// Point is one protocol layout's state at the end of a run.
type Point struct {
	Layout layout.Layout
	// Probe is the cheap sampled estimate from the seed pass.
	Probe pmu.Sample
	// Exact reports whether the layout was promoted to exact replay.
	Exact bool
	// Sample and Counters are the best-known measurement: exact when
	// promoted, otherwise the probe estimate with the promoted layouts'
	// calibration applied (Sample only — Counters stay the raw probe).
	Sample   pmu.Sample
	Counters pmu.Counters
	// Score is the layout's last uncertainty score (held-out residual
	// plus coefficient instability); zero once promoted.
	Score float64
}

// Step is one round of the error-vs-budget curve: the predicted max
// error with the measurements bought so far, and the layout the round
// then promoted ("" on the final, stopping round).
type Step struct {
	Round           int     `json:"round"`
	Promoted        string  `json:"promoted,omitempty"`
	PredictedMaxErr float64 `json:"predictedMaxErr"`
	CostAccesses    uint64  `json:"costAccesses"`
	CostRatio       float64 `json:"costRatio"`
}

// Stop reasons.
const (
	StopTarget     = "target"     // predicted max error reached ErrorTarget
	StopBudget     = "budget"     // MaxPromotions exact measurements spent
	StopExhausted  = "exhausted"  // every candidate layout already exact
	StopDegenerate = "degenerate" // scoring fits failed (e.g. too few points)
)

// Report is a finished planner run.
type Report struct {
	// Points holds every protocol layout in protocol order.
	Points []Point
	// Steps is the error-vs-budget curve, one entry per scoring round.
	Steps []Step
	// Promotions counts exact measurements (anchors included).
	Promotions int
	// PredictedMaxErr is the final cross-validated max relative error.
	PredictedMaxErr float64
	// ProbeAccesses and ExactAccesses split the measured-access cost;
	// CostAccesses is their sum. FullCostAccesses is what measuring the
	// whole protocol exactly would have cost.
	ProbeAccesses    uint64
	ExactAccesses    uint64
	CostAccesses     uint64
	FullCostAccesses uint64
	// Stopped names the stop reason (Stop* constants).
	Stopped string
}

// CostRatio is the planned sweep's measured-access cost relative to the
// full exact protocol.
func (r *Report) CostRatio() float64 {
	if r.FullCostAccesses == 0 {
		return 0
	}
	return float64(r.CostAccesses) / float64(r.FullCostAccesses)
}

// Samples returns the best-known training samples — every point except
// the 1GB validation layout — in protocol order.
func (r *Report) Samples() []pmu.Sample {
	out := make([]pmu.Sample, 0, len(r.Points))
	for _, pt := range r.Points {
		if pt.Layout.Name == validationLayout {
			continue
		}
		out = append(out, pt.Sample)
	}
	return out
}

// validationLayout is the 1GB validation point (§VII-D): excluded from
// training and from promotion candidacy, so it stays an independent
// check on the fitted model.
const validationLayout = "1GB"

// ErrNoLayouts reports an empty candidate protocol.
var ErrNoLayouts = errors.New("plan: no layouts to plan over")

// Run executes the active-learning loop over the given protocol layouts.
// onStep, when non-nil, receives each Step as it happens — the serving
// layer streams it as the job's live error-vs-budget curve.
func Run(ctx context.Context, m Measurer, lays []layout.Layout, cfg Config, onStep func(Step)) (*Report, error) {
	if len(lays) == 0 {
		return nil, ErrNoLayouts
	}
	if cfg.Folds <= 0 {
		cfg.Folds = 5
	}
	if cfg.LambdaRel <= 0 {
		cfg.LambdaRel = 0.01
	}
	if cfg.MaxPromotions <= 0 {
		cfg.MaxPromotions = max(1, len(lays)/5)
	}
	probe := cfg.ProbeSampling
	if !probe.Enabled() {
		probe = DefaultProbe
	}

	rep := &Report{
		Points:           make([]Point, len(lays)),
		FullCostAccesses: uint64(len(lays)) * m.TraceLen(),
	}

	// Seed pass: probe every layout in one sampled replay stage.
	res, err := m.Measure(ctx, lays, probe)
	if err != nil {
		return nil, fmt.Errorf("plan: probe pass: %w", err)
	}
	for i, lay := range lays {
		s := pmu.SampleFrom(lay.Name, res[i].Counters)
		rep.Points[i] = Point{Layout: lay, Probe: s, Sample: s, Counters: res[i].Counters}
		rep.ProbeAccesses += res[i].MeasuredAccesses
	}

	// Promote the anchors first: they pin the training hull and the
	// prior models' baseline points, and cost budget like any promotion.
	var anchorIdx []int
	for _, name := range cfg.Anchors {
		for i := range rep.Points {
			if rep.Points[i].Layout.Name == name && !rep.Points[i].Exact &&
				rep.Promotions+len(anchorIdx) < cfg.MaxPromotions {
				anchorIdx = append(anchorIdx, i)
			}
		}
	}
	if err := promote(ctx, m, rep, anchorIdx); err != nil {
		return nil, err
	}

	for round := 0; ; round++ {
		rep.CostAccesses = rep.ProbeAccesses + rep.ExactAccesses
		predErr, cvErr := predictedMaxErr(rep.Points, cfg)
		if cvErr != nil {
			// −1 marks "too degenerate to cross-validate" and keeps the
			// report JSON-safe (no Inf).
			predErr = -1
		}
		rep.PredictedMaxErr = predErr

		step := Step{
			Round:           round,
			PredictedMaxErr: predErr,
			CostAccesses:    rep.CostAccesses,
			CostRatio:       rep.CostRatio(),
		}
		stop := ""
		var cand int
		switch {
		case cvErr != nil:
			stop = StopDegenerate
		case cfg.ErrorTarget > 0 && predErr <= cfg.ErrorTarget:
			stop = StopTarget
		case rep.Promotions >= cfg.MaxPromotions:
			stop = StopBudget
		default:
			scores, ok := kfoldScores(rep.Points, cfg)
			if !ok {
				stop = StopDegenerate
				break
			}
			for i := range rep.Points {
				rep.Points[i].Score = scores[i]
			}
			cand = selectCandidate(rep.Points)
			if cand < 0 {
				stop = StopExhausted
			}
		}
		if stop != "" {
			rep.Steps = append(rep.Steps, step)
			if onStep != nil {
				onStep(step)
			}
			rep.Stopped = stop
			return rep, nil
		}

		step.Promoted = rep.Points[cand].Layout.Name
		rep.Steps = append(rep.Steps, step)
		if onStep != nil {
			onStep(step)
		}
		if err := promote(ctx, m, rep, []int{cand}); err != nil {
			return nil, err
		}
	}
}

// promote measures the indexed points exactly (one Measure call) and
// replaces their probe estimates.
func promote(ctx context.Context, m Measurer, rep *Report, idx []int) error {
	if len(idx) == 0 {
		return nil
	}
	lays := make([]layout.Layout, len(idx))
	for k, i := range idx {
		lays[k] = rep.Points[i].Layout
	}
	res, err := m.Measure(ctx, lays, sim.Sampling{})
	if err != nil {
		return fmt.Errorf("plan: exact measurement of %s: %w", lays[0].Name, err)
	}
	for k, i := range idx {
		pt := &rep.Points[i]
		pt.Exact = true
		pt.Score = 0
		pt.Counters = res[k].Counters
		pt.Sample = pmu.SampleFrom(pt.Layout.Name, res[k].Counters)
		rep.ExactAccesses += m.TraceLen()
		rep.Promotions++
	}
	rep.CostAccesses = rep.ProbeAccesses + rep.ExactAccesses
	recalibrate(rep)
	return nil
}

// recalibrate refreshes the unpromoted points' best-known samples with
// the exact points' probe correction. The probe schedule is positional
// over the pair's shared trace — every layout was sampled through the
// same measurement windows — so the extrapolation error is strongly
// correlated across layouts, and the ratio of exact to probe totals over
// the promoted layouts is an unbiased multiplicative correction for the
// rest (a ratio estimator with the promotions as control variates).
func recalibrate(rep *Report) {
	var exH, exM, exC, exR, prH, prM, prC, prR float64
	for i := range rep.Points {
		pt := &rep.Points[i]
		if !pt.Exact {
			continue
		}
		exH += pt.Sample.H
		exM += pt.Sample.M
		exC += pt.Sample.C
		exR += pt.Sample.R
		prH += pt.Probe.H
		prM += pt.Probe.M
		prC += pt.Probe.C
		prR += pt.Probe.R
	}
	fH, fM, fC, fR := ratio(exH, prH), ratio(exM, prM), ratio(exC, prC), ratio(exR, prR)
	for i := range rep.Points {
		pt := &rep.Points[i]
		if pt.Exact {
			continue
		}
		pt.Sample = pmu.Sample{
			Layout: pt.Probe.Layout,
			H:      fH * pt.Probe.H,
			M:      fM * pt.Probe.M,
			C:      fC * pt.Probe.C,
			R:      fR * pt.Probe.R,
		}
	}
}

// ratio is exact/probe, defaulting to 1 (no correction) when the probe
// total carries no signal.
func ratio(exact, probe float64) float64 {
	if probe > 0 && exact > 0 {
		return exact / probe
	}
	return 1
}

// selectCandidate picks the highest-scoring unpromoted, non-validation
// point. Ties (and the no-score case) break on ascending layout name, so
// selection is deterministic for a given fold seed.
func selectCandidate(pts []Point) int {
	var cands []int
	for i := range pts {
		if !pts[i].Exact && pts[i].Layout.Name != validationLayout {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	sort.Slice(cands, func(a, b int) bool {
		return pts[cands[a]].Layout.Name < pts[cands[b]].Layout.Name
	})
	sort.SliceStable(cands, func(a, b int) bool {
		return pts[cands[a]].Score > pts[cands[b]].Score
	})
	return cands[0]
}

// predictedMaxErr cross-validates Mosmodel — the model the sweep is
// being planned for — on the current best-known samples; its worst
// held-out relative error is the loop's stopping metric.
func predictedMaxErr(pts []Point, cfg Config) (float64, error) {
	samples := trainSamples(pts)
	if len(samples) < 2 {
		return math.Inf(1), errors.New("plan: too few training points to cross-validate")
	}
	mosmodel := func() models.Model { return models.NewMosmodel() }
	return models.CrossValidate(mosmodel, samples, cfg.Folds, cfg.Seed)
}

// trainSamples collects the best-known samples of every non-validation
// point, in protocol order.
func trainSamples(pts []Point) []pmu.Sample {
	out := make([]pmu.Sample, 0, len(pts))
	for i := range pts {
		if pts[i].Layout.Name == validationLayout {
			continue
		}
		out = append(out, pts[i].Sample)
	}
	return out
}

// kfoldScores computes each point's uncertainty: the relative residual
// when a K-fold Lasso fit that never saw the point predicts it, plus the
// per-term instability of the fitted polynomial there (standard
// deviation of each term's contribution across the K refits, relative to
// the point's runtime). Validation points score zero. ok is false when
// no fold produced a usable fit — the degenerate-surface signal.
func kfoldScores(pts []Point, cfg Config) (scores []float64, ok bool) {
	scores = make([]float64, len(pts))

	// Training view: every non-validation point.
	var idx []int
	for i := range pts {
		if pts[i].Layout.Name != validationLayout {
			idx = append(idx, i)
		}
	}
	n := len(idx)
	if n < 3 {
		return nil, false
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for k, i := range idx {
		s := pts[i].Sample
		X[k] = []float64{s.H, s.M, s.C}
		y[k] = s.R
	}
	lambda := cfg.LambdaRel * stddev(y)

	folds := stats.KFoldIndices(n, cfg.Folds, cfg.Seed)
	residual := make([]float64, n)
	contribs := make([][][]float64, n) // per point, per successful fold
	fits := 0
	for _, held := range folds {
		inHeld := make(map[int]bool, len(held))
		for _, k := range held {
			inHeld[k] = true
		}
		var trX [][]float64
		var trY []float64
		for k := range X {
			// Baselines anchor every fold's training set, mirroring
			// models.CrossValidate.
			name := pts[idx[k]].Layout.Name
			if inHeld[k] && name != "4KB" && name != "2MB" {
				continue
			}
			trX = append(trX, X[k])
			trY = append(trY, y[k])
		}
		if len(trX) < 3 || len(trX) == n {
			continue
		}
		fit, err := stats.FitPolyLasso(trX, trY, 3, lambda, []string{"H", "M", "C"})
		if err != nil {
			continue
		}
		fits++
		for k := range X {
			contribs[k] = append(contribs[k], fit.Contributions(X[k]))
			if inHeld[k] {
				if r := relErr(fit.Predict(X[k]), y[k]); r > residual[k] {
					residual[k] = r
				}
			}
		}
	}
	if fits == 0 {
		return nil, false
	}
	for k, i := range idx {
		scores[i] = sanitize(residual[k]) + sanitize(instability(contribs[k], y[k]))
	}
	return scores, true
}

// instability sums, over polynomial terms, the standard deviation of the
// term's contribution across fold refits, relative to the point's
// runtime. A region where refits disagree about which terms carry the
// prediction scores high even when the held-out residual happens small.
func instability(perFold [][]float64, y float64) float64 {
	if len(perFold) < 2 {
		return 0
	}
	nTerms := len(perFold[0])
	scale := math.Abs(y)
	if scale < 1 {
		scale = 1
	}
	var total float64
	col := make([]float64, len(perFold))
	for t := 0; t < nTerms; t++ {
		for f := range perFold {
			col[f] = perFold[f][t]
		}
		total += stddev(col)
	}
	return total / scale
}

// relErr is |pred−y|/|y|, degrading to absolute error at y = 0.
func relErr(pred, y float64) float64 {
	d := math.Abs(pred - y)
	if ay := math.Abs(y); ay > 0 {
		return d / ay
	}
	return d
}

// sanitize maps NaN/−Inf scores (degenerate fits) to zero so they never
// outrank a real score and never poison a sum.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// stddev is the population standard deviation.
func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}
