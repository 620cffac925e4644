// Top-level acceptance tests for adaptive sweep planning: on the bundled
// workloads, the active-learning planner must buy back the full
// 54-layout protocol's Mosmodel accuracy for a fraction of its
// measured-access cost. TestAdaptiveContract is the one enforcement of
// that contract: the model trained on the planned (mixed-fidelity)
// dataset, evaluated against the exact full-protocol samples, stays
// within adaptiveErrSlack absolute of the full-protocol model's max
// error while spending at most adaptiveCostCap of its accesses.
package mosaic

import (
	"context"
	"math"
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/models"
	"mosaic/internal/plan"
	"mosaic/internal/stats"
	"mosaic/internal/workloads"
)

// adaptiveWorkloads are the bundled pairs the contract is quoted on —
// the same locality extremes as the sampled-replay acceptance sweep.
var adaptiveWorkloads = []string{"gups/8GB", "spec06/mcf"}

// adaptiveErrSlack is the allowed absolute excess of the adaptive
// model's max relative error over the full-protocol model's.
const adaptiveErrSlack = 0.005

// adaptiveCostCap bounds the planned sweep's measured accesses relative
// to the full exact protocol.
const adaptiveCostCap = 1.0 / 3.0

// adaptiveModelErr evaluates a model trained on ds against the exact
// full-protocol samples — the common ground truth both protocols are
// judged on.
func adaptiveModelErr(t *testing.T, ds *experiment.Dataset, truth *experiment.Dataset) float64 {
	t.Helper()
	m := models.NewMosmodel()
	if err := m.Fit(ds.Samples); err != nil {
		t.Fatalf("fit mosmodel on %s: %v", ds.Key(), err)
	}
	y, yhat := models.Predictions(m, truth.Samples)
	return stats.MaxAbsRelErr(y, yhat)
}

// TestAdaptiveContract runs the bake-off: full exact protocol vs planned
// sweep, per bundled workload.
func TestAdaptiveContract(t *testing.T) {
	if testing.Short() {
		t.Skip("full-protocol bake-off in -short mode")
	}
	plat, err := arch.ByName("SandyBridge")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range adaptiveWorkloads {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}

			// Ground truth: the exact standard protocol.
			full := experiment.NewRunner()
			full.TraceDir = t.TempDir()
			truth, err := full.Collect(w, plat)
			if err != nil {
				t.Fatal(err)
			}
			fullErr := adaptiveModelErr(t, truth, truth)

			// Planned sweep over the same protocol (fresh runner so no
			// dataset aliasing; shared trace dir skips regeneration).
			ad := experiment.NewRunner()
			ad.TraceDir = full.TraceDir
			ds, rep, err := plan.Adaptive(context.Background(), ad, w, plat, plan.Config{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			adErr := adaptiveModelErr(t, ds, truth)

			ratio := rep.CostRatio()
			t.Logf("%s: full maxerr %.3f%%, adaptive maxerr %.3f%% (pred %.3f%%), promotions %d/%d layouts, cost ratio %.3f, stop %s",
				name, 100*fullErr, 100*adErr, 100*rep.PredictedMaxErr,
				rep.Promotions, len(rep.Points), ratio, rep.Stopped)

			if math.IsNaN(adErr) || adErr > fullErr+adaptiveErrSlack {
				t.Errorf("adaptive max error %.4f exceeds full-protocol %.4f + %.4f slack",
					adErr, fullErr, adaptiveErrSlack)
			}
			if ratio > adaptiveCostCap {
				t.Errorf("adaptive cost ratio %.3f exceeds cap %.3f", ratio, adaptiveCostCap)
			}
			if rep.Promotions >= len(rep.Points) {
				t.Errorf("planner promoted every layout (%d) — no saving over the full protocol", rep.Promotions)
			}
		})
	}
}
