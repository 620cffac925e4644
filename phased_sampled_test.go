// Top-level acceptance test for the per-phase sampled-replay contract:
// phased dbindex workloads at sweep-scale trace lengths, replayed exact and
// under the committed per-phase sampling config, must keep every
// statistically significant counter of every phase of every layout within
// 1% of exact replay, and every counter within the sampling-noise envelope
// max(1%, 8/√events) — the docs/timing-model.md headline contract restated
// per regime. Stratified extrapolation (windows never cross a phase
// boundary; each phase restarts the plan) is what makes the bound
// attainable: a phase transition inside a skip stretch is precisely the
// failure mode stationary workloads never exposed.
package mosaic

import (
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
	"mosaic/internal/workloads"
)

// phasedSampling is the committed config of the per-phase contract: unlike
// sim.DefaultSampling it must hold per-phase estimates of short,
// cache-friendly regimes to the envelope, so every parameter counters a
// specific failure mode:
//
//   - Period is prime. The dbindex kernels are built from power-of-two
//     geometry (node sizes, run lengths, entry strides), so their rare
//     events — 2MB-page crossings of a compaction output stream, say —
//     recur on power-of-two cycles. A power-of-two period phase-locks the
//     window schedule to those cycles and the estimator sees all of the
//     events or none of them; a prime period makes consecutive windows
//     sweep every phase of any power-of-two cycle (systematic sampling's
//     deterministic stand-in for SMARTS' random offsets).
//   - MeasureLen is large. Functional warmup advances TLB/cache state but
//     not the clock or walker queue, so each window's opening accesses
//     replay against a cold timing pipeline — a near-constant per-window
//     cycle deficit. The bias scales with window count, not coverage;
//     8K-access windows keep it under ~0.2% of even a cache-hit-heavy
//     window's cycles.
//   - WarmupLen covers the whole gap between windows, so functional state
//     never drifts: the only estimation error left is which windows were
//     measured, which is what the noise envelope models.
var phasedSampling = sim.Sampling{
	Period:      28657,
	MeasureLen:  8192,
	WarmupLen:   20465,
	PrologueLen: 8192,
}

// phasedEventBasis returns the count of discrete events behind a counter —
// the effective sample size that bounds its sampling noise. For event
// counters that is the counter itself, but cycle counters aggregate
// variable per-event costs: C is a few hundred cycles per walk, so C×frac
// would overstate the walk sample by orders of magnitude; R accrues one
// cost term per access.
func phasedEventBasis(i int, c pmu.Counters) uint64 {
	switch sampledCounterNames[i] {
	case "C":
		return c.M
	case "R":
		return c.TLBLookups
	}
	return sampledCounterValues(c)[i]
}

// TestPhasedSampledAccuracy is the per-phase acceptance bound, checked on
// every bundled phased workload (the dbindex suite) on SandyBridge. It
// fails if any phase of any layout has a significant counter off by more
// than 1%, a counter outside its noise envelope, a phase whose sampling
// never engaged, or a dataset that lost its phase attribution.
func TestPhasedSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("phased sampled-vs-exact sweep comparison is not short")
	}
	dir := t.TempDir()
	var ws []workloads.Workload
	for _, w := range workloads.DBIndex() {
		ws = append(ws, workloads.Stretched(w, sampledStretch))
	}
	run := func(s sim.Sampling) []*experiment.Dataset {
		r := experiment.NewRunner()
		r.Proto = experiment.Quick
		r.TraceDir = dir
		r.Sampling = s
		dss, err := r.CollectAll(ws, []arch.Platform{arch.SandyBridge}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return dss
	}
	exact := run(sim.Sampling{})
	sampled := run(phasedSampling)

	var entries, significant int
	var worstSig, worstEnv float64
	var worstSigAt, worstEnvAt string
	for d := range exact {
		key := exact[d].Workload + "@" + exact[d].Platform
		if len(exact[d].Phases) == 0 || len(sampled[d].Phases) == 0 {
			t.Fatalf("%s: dataset lost its phase attribution (exact %d layouts, sampled %d)",
				key, len(exact[d].Phases), len(sampled[d].Phases))
		}
		for layoutName, ephs := range exact[d].Phases {
			sphs := sampled[d].Phases[layoutName]
			if len(sphs) != len(ephs) {
				t.Fatalf("%s layout %s: %d exact phases vs %d sampled", key, layoutName, len(ephs), len(sphs))
			}
			for p, eph := range ephs {
				sph := sphs[p]
				if sph.Name != eph.Name {
					t.Fatalf("%s layout %s phase %d: %q exact vs %q sampled",
						key, layoutName, p, eph.Name, sph.Name)
				}
				if sph.MeasuredAccesses == 0 || sph.MeasuredAccesses >= sph.TotalAccesses {
					t.Fatalf("%s layout %s phase %q: coverage %d/%d, want a strict subset",
						key, layoutName, sph.Name, sph.MeasuredAccesses, sph.TotalAccesses)
				}
				frac := float64(sph.MeasuredAccesses) / float64(sph.TotalAccesses)
				ev, sv := sampledCounterValues(eph.Counters), sampledCounterValues(sph.Counters)
				for i := range ev {
					if ev[i] < minSampledCount {
						continue
					}
					diff := float64(sv[i]) - float64(ev[i])
					if diff < 0 {
						diff = -diff
					}
					rel := diff / float64(ev[i])
					events := float64(phasedEventBasis(i, eph.Counters)) * frac
					if events <= 0 {
						continue
					}
					entries++
					at := key + "/" + layoutName + "/" + eph.Name + "/" + sampledCounterNames[i]
					if events >= sigSampledEvents {
						significant++
						if rel > worstSig {
							worstSig, worstSigAt = rel, at
						}
					}
					if ratio := rel / sampledErrorBound(events); ratio > worstEnv {
						worstEnv, worstEnvAt = ratio, at
					}
				}
			}
		}
	}
	t.Logf("%d per-phase entries, %d significant, worst significant %.4f%% (%s), worst envelope ratio %.2f (%s)",
		entries, significant, 100*worstSig, worstSigAt, worstEnv, worstEnvAt)
	if significant < 100 {
		t.Errorf("only %d significant per-phase counter entries — the sweep is too small to claim anything", significant)
	}
	if worstSig > 0.01 {
		t.Errorf("significant per-phase counter off by %.4f%% at %s, want ≤ 1%%", 100*worstSig, worstSigAt)
	}
	if worstEnv > 1 {
		t.Errorf("per-phase counter outside the sampling-noise envelope at %s (ratio %.2f)", worstEnvAt, worstEnv)
	}
}
