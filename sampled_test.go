// Top-level acceptance tests for sampled replay: a quick-protocol sweep
// over bundled workloads at sweep-scale trace lengths, replayed exact and
// under the default sampling config, must satisfy the accuracy contract of
// docs/timing-model.md — every statistically significant counter within 1%
// of exact replay, every counter within the sampling-noise envelope — while
// the sampled replay stage runs at least 5× faster. This is the bargain of
// systematic sampling with functional warmup (the SMARTS recipe): give up
// only what a ~5% sample physically cannot resolve, get back most of the
// replay time.
package mosaic

import (
	"math"
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
	"mosaic/internal/workloads"
)

// sampledSweepWorkloads are the bundled workloads the acceptance numbers
// are quoted on: a scatter kernel (gups) and a pointer chaser (mcf) — the
// two extremes of the suite's locality spectrum.
var sampledSweepWorkloads = []string{"gups/8GB", "spec06/mcf"}

// sampledStretch scales the bundled workloads' trace length for the
// acceptance sweep. At the default ~120K-access budget a systematic
// sampler barely fits a handful of windows; real deployments replay much
// longer traces, and both the ≥5× speedup and the 1% accuracy claim are
// only meaningful in that regime.
const sampledStretch = 32

// minSampledCount skips counters whose exact value is tiny: they turn
// one-count differences into huge relative errors without mattering to
// any fitted model.
const minSampledCount = 1000

// sigSampledEvents is the significance threshold of the accuracy contract:
// with at least this many of a counter's events inside measurement windows,
// sampling noise (Poisson with the empirical ~2× overdispersion) sits below
// 1%, so such counters are held to the strict 1% bound.
const sigSampledEvents = 40_000

// sampledErrorBound is the per-counter tolerance: 1% once a counter is
// statistically significant, and the sampling-noise envelope K/sqrt(events)
// below that. K=8 covers the empirical overdispersion of the bundled
// workloads with ~30% margin.
func sampledErrorBound(sampledEvents float64) float64 {
	return math.Max(0.01, 8/math.Sqrt(sampledEvents))
}

// sampledCounterValues flattens the counter set for comparison.
func sampledCounterValues(c pmu.Counters) []uint64 {
	return []uint64{
		c.R, c.H, c.M, c.C, c.Instructions,
		c.L1DLoadsProgram, c.L1DLoadsWalker,
		c.L2LoadsProgram, c.L2LoadsWalker,
		c.L3LoadsProgram, c.L3LoadsWalker,
		c.DRAMLoadsProgram, c.DRAMLoadsWalker,
		c.TLBLookups,
	}
}

var sampledCounterNames = []string{
	"R", "H", "M", "C", "Instructions",
	"L1DLoadsProgram", "L1DLoadsWalker",
	"L2LoadsProgram", "L2LoadsWalker",
	"L3LoadsProgram", "L3LoadsWalker",
	"DRAMLoadsProgram", "DRAMLoadsWalker",
	"TLBLookups",
}

// runSampledSweep collects the quick-protocol datasets for the stretched
// bundled workloads on the given platforms under one sampling config,
// returning the datasets and the replay-stage seconds.
func runSampledSweep(t *testing.T, dir string, plats []arch.Platform, s sim.Sampling) ([]*experiment.Dataset, float64) {
	t.Helper()
	var ws []workloads.Workload
	for _, name := range sampledSweepWorkloads {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, workloads.Stretched(w, sampledStretch))
	}
	r := experiment.NewRunner()
	r.Proto = experiment.Quick
	r.TraceDir = dir
	r.Sampling = s
	dss, err := r.CollectAll(ws, plats, nil)
	if err != nil {
		t.Fatal(err)
	}
	var replay float64
	for _, st := range r.StageTimes() {
		if st.Stage == sim.StageReplay {
			replay = st.Total.Seconds()
		}
	}
	return dss, replay
}

// sampledSweepErrors holds the accuracy summary of a sampled-vs-exact
// sweep comparison under the docs/timing-model.md contract.
type sampledSweepErrors struct {
	// Significant is the number of (dataset, layout, counter) entries with
	// at least sigSampledEvents events inside measurement windows; WorstSig
	// is their worst relative error (the headline ≤1% bound) at WorstSigAt.
	Significant int
	WorstSig    float64
	WorstSigAt  string
	// WorstEnvRatio is the worst relErr/bound ratio over all compared
	// entries — > 1 means some counter escaped the noise envelope.
	WorstEnvRatio float64
	WorstEnvAt    string
}

// compareSampledSweeps checks two sweeps' datasets (matched by position —
// both sweeps run the same protocol in the same order) against the
// accuracy contract.
func compareSampledSweeps(t *testing.T, exact, sampled []*experiment.Dataset) sampledSweepErrors {
	t.Helper()
	if len(exact) != len(sampled) {
		t.Fatalf("%d exact datasets vs %d sampled", len(exact), len(sampled))
	}
	var out sampledSweepErrors
	for d := range exact {
		if exact[d].Platform != sampled[d].Platform {
			t.Fatalf("dataset order mismatch: %s@%s vs %s@%s",
				exact[d].Workload, exact[d].Platform, sampled[d].Workload, sampled[d].Platform)
		}
		if sampled[d].TotalAccesses == 0 {
			t.Fatalf("%s@%s: sampled sweep recorded no coverage", sampled[d].Workload, sampled[d].Platform)
		}
		f := float64(sampled[d].MeasuredAccesses) / float64(sampled[d].TotalAccesses)
		for layoutName, ec := range exact[d].Counters {
			sc, ok := sampled[d].Counters[layoutName]
			if !ok {
				t.Fatalf("sampled sweep missing layout %s", layoutName)
			}
			ev, sv := sampledCounterValues(ec), sampledCounterValues(sc)
			for i := range ev {
				if ev[i] < minSampledCount {
					continue
				}
				rel := math.Abs(float64(sv[i])-float64(ev[i])) / float64(ev[i])
				events := float64(ev[i]) * f
				at := exact[d].Workload + "@" + exact[d].Platform + "/" + layoutName + "/" + sampledCounterNames[i]
				if events >= sigSampledEvents {
					out.Significant++
					if rel > out.WorstSig {
						out.WorstSig, out.WorstSigAt = rel, at
					}
				}
				if ratio := rel / sampledErrorBound(events); ratio > out.WorstEnvRatio {
					out.WorstEnvRatio, out.WorstEnvAt = ratio, at
				}
			}
		}
	}
	return out
}

// TestSampledReplayAccuracy is the acceptance bound: on sweep-scale traces
// the default sampling config keeps every statistically significant
// counter within 1% of the exact sweep — and every counter inside the
// sampling-noise envelope — while cutting replay time by at least 5×.
func TestSampledReplayAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled-vs-exact sweep comparison is not short")
	}
	dir := t.TempDir()
	plats := []arch.Platform{arch.SandyBridge}
	exact, exactSec := runSampledSweep(t, dir, plats, sim.Sampling{})
	sampled, sampledSec := runSampledSweep(t, dir, plats, sim.DefaultSampling)

	errs := compareSampledSweeps(t, exact, sampled)
	t.Logf("replay: %.2fs exact, %.2fs sampled (%.1f×); %d significant entries, worst %.4f%% (%s); worst envelope ratio %.2f (%s)",
		exactSec, sampledSec, exactSec/sampledSec,
		errs.Significant, 100*errs.WorstSig, errs.WorstSigAt, errs.WorstEnvRatio, errs.WorstEnvAt)
	if errs.Significant < 100 {
		t.Errorf("only %d significant counter entries — the sweep is too small to claim anything", errs.Significant)
	}
	if errs.WorstSig > 0.01 {
		t.Errorf("significant counter off by %.4f%% at %s, want ≤ 1%%", 100*errs.WorstSig, errs.WorstSigAt)
	}
	if errs.WorstEnvRatio > 1 {
		t.Errorf("counter outside the sampling-noise envelope at %s (ratio %.2f)", errs.WorstEnvAt, errs.WorstEnvRatio)
	}
	if sampledSec <= 0 || exactSec/sampledSec < 5 {
		t.Errorf("sampled replay %.2fs vs exact %.2fs: %.1f× speedup, want ≥ 5×",
			sampledSec, exactSec, exactSec/sampledSec)
	}
	for _, ds := range sampled {
		if ds.MeasuredAccesses == 0 || ds.MeasuredAccesses >= ds.TotalAccesses {
			t.Errorf("%s@%s: coverage %d/%d accesses, want a strict subset",
				ds.Workload, ds.Platform, ds.MeasuredAccesses, ds.TotalAccesses)
		}
	}
	for _, ds := range exact {
		if ds.MeasuredAccesses != 0 || ds.TotalAccesses != 0 {
			t.Errorf("%s@%s: exact sweep records coverage %d/%d, want 0/0",
				ds.Workload, ds.Platform, ds.MeasuredAccesses, ds.TotalAccesses)
		}
	}
}
