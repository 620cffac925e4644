package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"mosaic/internal/experiment"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
)

// minExactCount is the smallest exact counter value that participates in
// the relative-error aggregate. Counters below it (a handful of stray TLB
// misses under a 1GB layout, say) turn one-count absolute differences into
// huge relative ones while being irrelevant to any model fitted on the
// dataset, so the report tracks them only as absolute skips.
const minExactCount = 1000

// sigSampledEvents is the significance threshold of the accuracy contract
// (docs/timing-model.md): a counter with at least this many of its events
// inside measurement windows has sampling noise below 1%, so it is held to
// the strict 1% bound. Counters below the threshold are bounded by the
// noise envelope instead.
const sigSampledEvents = 40_000

// sampledBound is the per-counter tolerance: 1% once a counter is
// statistically significant, and the sampling-noise envelope K/sqrt(events)
// below that (K=8 covers the bundled workloads' empirical ~2× Poisson
// overdispersion with margin).
func sampledBound(sampledEvents float64) float64 {
	return math.Max(0.01, 8/math.Sqrt(sampledEvents))
}

// sampleReport runs the configured sweep twice — exact, then under the
// sampling config (the flag defaults fall back to sim.DefaultSampling) —
// and reports the replay-stage speedup plus the error aggregates of the
// accuracy contract: the worst relative error over statistically
// significant counters (the headline ≤1% bound), the worst noise-envelope
// ratio over all counters, and the raw per-counter maxima. With jsonOut
// the report is a single JSON object on stdout, suitable for appending to
// a benchmark log. Combine with -stretch so the traces are long enough for
// the sampler to matter (the committed numbers use -stretch 32).
func (b *bench) sampleReport(s sim.Sampling, jsonOut bool) error {
	if !s.Enabled() {
		s = sim.DefaultSampling
	}
	// Both sweeps must replay identical traces; share a trace cache so the
	// workloads generate once.
	dir := b.runner.TraceDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "mosbench-traces-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	run := func(sampling sim.Sampling) ([]*experiment.Dataset, float64, error) {
		r := experiment.NewRunner()
		r.Proto = b.runner.Proto
		r.Parallelism = b.runner.Parallelism
		r.TraceDir = dir
		r.Sampling = sampling
		b.runner = r // progressLine reads coverage off the active runner
		dss, err := r.CollectAll(b.workloads, b.platforms, b.progressLine)
		fmt.Fprintln(b.diag)
		if err != nil {
			return nil, 0, err
		}
		var replay float64
		for _, st := range r.StageTimes() {
			if st.Stage == sim.StageReplay {
				replay = st.Total.Seconds()
			}
		}
		return dss, replay, nil
	}

	fmt.Fprintln(b.diag, "sample-report: exact sweep")
	exact, exactSec, err := run(sim.Sampling{})
	if err != nil {
		return err
	}
	fmt.Fprintf(b.diag, "sample-report: sampled sweep (period=%d window=%d warmup=%d prologue=%d)\n",
		s.Period, s.MeasureLen, s.WarmupLen, s.PrologueLen)
	sampled, sampledSec, err := run(s)
	if err != nil {
		return err
	}

	rep := compareSweeps(exact, sampled)
	rep.Period, rep.Window, rep.Warmup, rep.Prologue = s.Period, s.MeasureLen, s.WarmupLen, s.PrologueLen
	rep.Stretch = b.stretch
	rep.ExactReplaySeconds = exactSec
	rep.SampledReplaySeconds = sampledSec
	if sampledSec > 0 {
		rep.Speedup = exactSec / sampledSec
	}

	if jsonOut {
		enc := json.NewEncoder(b.out)
		return enc.Encode(rep)
	}
	fmt.Fprintf(b.out, "Sampled replay vs. exact (period=%d window=%d warmup=%d prologue=%d, stretch %d×)\n",
		s.Period, s.MeasureLen, s.WarmupLen, s.PrologueLen, b.stretch)
	fmt.Fprintf(b.out, "  measured fraction:    %.2f%%\n", 100*rep.MeasuredFraction)
	fmt.Fprintf(b.out, "  replay time:          %.2fs exact, %.2fs sampled (%.1f× speedup)\n",
		rep.ExactReplaySeconds, rep.SampledReplaySeconds, rep.Speedup)
	fmt.Fprintf(b.out, "  significant counters: %d entries (≥%d sampled events), worst %.4f%% (%s)\n",
		rep.Significant, sigSampledEvents, 100*rep.MaxRelErrSignificant, rep.MaxRelErrSignificantAt)
	fmt.Fprintf(b.out, "  noise envelope:       worst error/bound ratio %.2f (%s)\n",
		rep.WorstEnvelopeRatio, rep.WorstEnvelopeAt)
	fmt.Fprintf(b.out, "  max relative error:   %.4f%% (%s)\n", 100*rep.MaxRelError, rep.MaxRelErrorAt)
	fmt.Fprintln(b.out, "  per-counter max relative error:")
	for _, name := range counterNames {
		if e, ok := rep.PerCounter[name]; ok {
			fmt.Fprintf(b.out, "    %-18s %.4f%%\n", name, 100*e)
		}
	}
	return nil
}

// sampleReportResult is the machine-readable shape of the report.
type sampleReportResult struct {
	Kind                 string // "sample-report", to tag entries in mixed logs
	Period               int
	Window               int
	Warmup               int
	Prologue             int
	Stretch              int
	MeasuredFraction     float64
	ExactReplaySeconds   float64
	SampledReplaySeconds float64
	Speedup              float64
	// Significant is the number of (dataset, layout, counter) entries with
	// at least sigSampledEvents events inside measurement windows;
	// MaxRelErrSignificant is their worst |sampled-exact|/exact — the
	// accuracy contract holds it to ≤ 1% — at MaxRelErrSignificantAt
	// (workload@platform/layout/counter).
	Significant            int
	MaxRelErrSignificant   float64
	MaxRelErrSignificantAt string
	// WorstEnvelopeRatio is the worst relErr/bound ratio over all compared
	// entries, where bound = max(1%, 8/sqrt(sampled events)); a value > 1
	// means some counter escaped the sampling-noise envelope.
	WorstEnvelopeRatio float64
	WorstEnvelopeAt    string
	// MaxRelError is the worst raw relative error over every counter of
	// every layout of every dataset (exact values < minExactCount excluded),
	// significant or not — dominated by rare counters whose errors are pure
	// sampling noise.
	MaxRelError   float64
	MaxRelErrorAt string
	// PerCounter maps counter name to its own worst relative error.
	PerCounter map[string]float64
}

// counterNames fixes the report order of pmu.Counters fields.
var counterNames = []string{
	"R", "H", "M", "C", "Instructions",
	"L1DLoadsProgram", "L1DLoadsWalker",
	"L2LoadsProgram", "L2LoadsWalker",
	"L3LoadsProgram", "L3LoadsWalker",
	"DRAMLoadsProgram", "DRAMLoadsWalker",
	"TLBLookups",
}

// counterValues flattens a counter set in counterNames order.
func counterValues(c pmu.Counters) []uint64 {
	return []uint64{
		c.R, c.H, c.M, c.C, c.Instructions,
		c.L1DLoadsProgram, c.L1DLoadsWalker,
		c.L2LoadsProgram, c.L2LoadsWalker,
		c.L3LoadsProgram, c.L3LoadsWalker,
		c.DRAMLoadsProgram, c.DRAMLoadsWalker,
		c.TLBLookups,
	}
}

// compareSweeps folds two sweeps' datasets into the error aggregates.
// Datasets and layouts are matched by name; the sweeps ran the same
// protocol over the same traces, so the sets coincide. The sampled-event
// count behind the significance split is estimated per dataset as the
// exact count scaled by that dataset's measured fraction.
func compareSweeps(exact, sampled []*experiment.Dataset) sampleReportResult {
	rep := sampleReportResult{Kind: "sample-report", PerCounter: make(map[string]float64)}
	byKey := make(map[string]*experiment.Dataset, len(sampled))
	for _, ds := range sampled {
		byKey[ds.Workload+"@"+ds.Platform] = ds
	}
	var measuredSum, totalSum uint64
	for _, eds := range exact {
		key := eds.Workload + "@" + eds.Platform
		sds, ok := byKey[key]
		if !ok {
			continue
		}
		measuredSum += sds.MeasuredAccesses
		totalSum += sds.TotalAccesses
		var frac float64
		if sds.TotalAccesses > 0 {
			frac = float64(sds.MeasuredAccesses) / float64(sds.TotalAccesses)
		}
		for layoutName, ec := range eds.Counters {
			sc, ok := sds.Counters[layoutName]
			if !ok {
				continue
			}
			ev, sv := counterValues(ec), counterValues(sc)
			for i, name := range counterNames {
				if ev[i] < minExactCount {
					continue
				}
				diff := float64(sv[i]) - float64(ev[i])
				if diff < 0 {
					diff = -diff
				}
				rel := diff / float64(ev[i])
				at := key + "/" + layoutName + "/" + name
				if events := float64(ev[i]) * frac; events > 0 {
					if events >= sigSampledEvents {
						rep.Significant++
						if rel > rep.MaxRelErrSignificant {
							rep.MaxRelErrSignificant = rel
							rep.MaxRelErrSignificantAt = at
						}
					}
					if ratio := rel / sampledBound(events); ratio > rep.WorstEnvelopeRatio {
						rep.WorstEnvelopeRatio = ratio
						rep.WorstEnvelopeAt = at
					}
				}
				if rel > rep.PerCounter[name] {
					rep.PerCounter[name] = rel
				}
				if rel > rep.MaxRelError {
					rep.MaxRelError = rel
					rep.MaxRelErrorAt = at
				}
			}
		}
	}
	if totalSum > 0 {
		rep.MeasuredFraction = float64(measuredSum) / float64(totalSum)
	}
	return rep
}
