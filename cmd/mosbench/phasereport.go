package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"mosaic/internal/experiment"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
)

// phaseReportSampling is the committed config behind -phase-report (and the
// root TestPhasedSampledAccuracy): unlike sim.DefaultSampling it must hold
// per-phase estimates of short, cache-friendly regimes to the envelope, so
// every parameter counters a specific failure mode:
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
var phaseReportSampling = sim.Sampling{
	Period:      28657,
	MeasureLen:  8192,
	WarmupLen:   20465,
	PrologueLen: 8192,
}

// phaseReport runs the configured sweep twice — exact, then sampled — over
// phased workloads (the dbindex suite unless -workloads narrows it) and
// checks the per-phase accuracy contract: within every phase of every
// layout, each significant counter's sampled estimate must stay inside
// max(1%, 8/√events) of the exact replay, where events counts only that
// phase's accesses inside measurement windows. Stratified extrapolation
// makes this the same contract the headline obeys, restated per regime —
// the failure mode it guards is a phase transition hidden inside a skip
// stretch. With jsonOut the result is one JSON object on stdout
// (CI captures it as BENCH_phases.json); the exit status is nonzero when
// any phase escapes its envelope.
func (b *bench) phaseReport(s sim.Sampling, jsonOut bool) error {
	if !s.Enabled() {
		s = phaseReportSampling
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
	run := func(sampling sim.Sampling) ([]*experiment.Dataset, error) {
		r := experiment.NewRunner()
		r.Proto = b.runner.Proto
		r.Parallelism = b.runner.Parallelism
		r.TraceDir = dir
		r.Sampling = sampling
		b.runner = r // progressLine reads coverage off the active runner
		dss, err := r.CollectAll(b.workloads, b.platforms, b.progressLine)
		fmt.Fprintln(b.diag)
		return dss, err
	}

	fmt.Fprintln(b.diag, "phase-report: exact sweep")
	exact, err := run(sim.Sampling{})
	if err != nil {
		return err
	}
	fmt.Fprintf(b.diag, "phase-report: sampled sweep (period=%d window=%d warmup=%d prologue=%d)\n",
		s.Period, s.MeasureLen, s.WarmupLen, s.PrologueLen)
	sampled, err := run(s)
	if err != nil {
		return err
	}

	rep, err := comparePhases(exact, sampled)
	if err != nil {
		return err
	}
	rep.Period, rep.Window, rep.Warmup, rep.Prologue = s.Period, s.MeasureLen, s.WarmupLen, s.PrologueLen
	rep.Stretch = b.stretch

	if jsonOut {
		enc := json.NewEncoder(b.out)
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(b.out, "Per-phase sampled replay vs. exact (period=%d window=%d warmup=%d prologue=%d, stretch %d×)\n",
			s.Period, s.MeasureLen, s.WarmupLen, s.PrologueLen, b.stretch)
		fmt.Fprintf(b.out, "  phases compared:      %d across %d datasets\n", len(rep.Phases), len(exact))
		fmt.Fprintf(b.out, "  significant counters: %d entries (≥%d sampled events), worst %.4f%% (%s)\n",
			rep.Significant, sigSampledEvents, rep.MaxErrPct, rep.MaxErrAt)
		fmt.Fprintf(b.out, "  noise envelope:       worst error/bound ratio %.2f (%s)\n",
			rep.WorstEnvelopeRatio, rep.WorstEnvelopeAt)
		for _, ph := range rep.Phases {
			fmt.Fprintf(b.out, "    %-44s worst %.4f%%  envelope %.2f\n",
				ph.Workload+"@"+ph.Platform+"/"+ph.Phase, ph.MaxRelErrPct, ph.EnvelopeRatio)
		}
	}
	if rep.WorstEnvelopeRatio > 1 {
		return fmt.Errorf("phase-report: %s escaped the per-phase sampling envelope (ratio %.2f)",
			rep.WorstEnvelopeAt, rep.WorstEnvelopeRatio)
	}
	return nil
}

// phaseErrRow aggregates one phase of one dataset over every layout.
type phaseErrRow struct {
	Workload string `json:"workload"`
	Platform string `json:"platform"`
	Phase    string `json:"phase"`
	// Significant counts the (layout, counter) entries of this phase with
	// at least sigSampledEvents events inside measurement windows.
	Significant int `json:"significant"`
	// MaxRelErrPct is the worst significant relative error in percent;
	// EnvelopeRatio the worst relErr/max(1%, 8/√events) over all entries.
	MaxRelErrPct  float64 `json:"max_rel_err_pct"`
	EnvelopeRatio float64 `json:"envelope_ratio"`
}

// phaseReportResult is the machine-readable shape of -phase-report — the
// CI bench job stores it verbatim as BENCH_phases.json.
type phaseReportResult struct {
	Kind     string `json:"kind"` // "phase-report"
	Period   int    `json:"period"`
	Window   int    `json:"window"`
	Warmup   int    `json:"warmup"`
	Prologue int    `json:"prologue"`
	Stretch  int    `json:"stretch"`
	// Significant and MaxErrPct aggregate across phases: the worst
	// significant per-phase relative error in percent is the ledger's
	// phase_maxerr_pct, gated absolutely by -check-regression.
	Significant        int           `json:"significant"`
	MaxErrPct          float64       `json:"phase_maxerr_pct"`
	MaxErrAt           string        `json:"phase_maxerr_at"`
	WorstEnvelopeRatio float64       `json:"worst_envelope_ratio"`
	WorstEnvelopeAt    string        `json:"worst_envelope_at"`
	Phases             []phaseErrRow `json:"phases"`
}

// phaseEventBasis returns the count of discrete events behind a counter —
// the effective sample size that bounds its sampling noise. For event
// counters that is the counter itself, but cycle counters aggregate
// variable per-event costs: C is a few hundred cycles per walk, so C×frac
// overstates the walk sample by orders of magnitude (and the envelope
// would demand precision the walk count cannot deliver); R accrues one
// cost term per access. Noise scales with 1/√(events measured), events in
// the underlying discrete unit.
func phaseEventBasis(name string, c pmu.Counters) uint64 {
	switch name {
	case "C":
		return c.M // one page walk per TLB miss
	case "R":
		return c.TLBLookups // one latency term per access
	}
	return counterValue(name, c)
}

// counterValue returns one named counter.
func counterValue(name string, c pmu.Counters) uint64 {
	for i, n := range counterNames {
		if n == name {
			return counterValues(c)[i]
		}
	}
	return 0
}

// comparePhases folds two sweeps' per-phase attributions into the error
// aggregates. Datasets are matched by workload@platform, layouts by name,
// and phase rows by position — the sweeps replayed the same traces, so the
// partitions coincide structurally; any shape mismatch is an error, not a
// skip, because a silently dropped phase would void the contract.
func comparePhases(exact, sampled []*experiment.Dataset) (phaseReportResult, error) {
	rep := phaseReportResult{Kind: "phase-report"}
	byKey := make(map[string]*experiment.Dataset, len(sampled))
	for _, ds := range sampled {
		byKey[ds.Workload+"@"+ds.Platform] = ds
	}
	rows := make(map[string]*phaseErrRow)
	var order []string
	for _, eds := range exact {
		key := eds.Workload + "@" + eds.Platform
		sds, ok := byKey[key]
		if !ok {
			return rep, fmt.Errorf("phase-report: no sampled dataset for %s", key)
		}
		if len(eds.Phases) == 0 {
			return rep, fmt.Errorf("phase-report: %s carries no phase attribution; pick phased workloads (the dbindex suite)", key)
		}
		layoutNames := make([]string, 0, len(eds.Phases))
		for layoutName := range eds.Phases {
			layoutNames = append(layoutNames, layoutName)
		}
		sort.Strings(layoutNames)
		for _, layoutName := range layoutNames {
			ephs := eds.Phases[layoutName]
			sphs, ok := sds.Phases[layoutName]
			if !ok || len(sphs) != len(ephs) {
				return rep, fmt.Errorf("phase-report: %s layout %s: phase rows %d exact vs %d sampled",
					key, layoutName, len(ephs), len(sphs))
			}
			for i, eph := range ephs {
				sph := sphs[i]
				if sph.Name != eph.Name {
					return rep, fmt.Errorf("phase-report: %s layout %s phase %d: %q exact vs %q sampled",
						key, layoutName, i, eph.Name, sph.Name)
				}
				rowKey := key + "/" + eph.Name
				row := rows[rowKey]
				if row == nil {
					row = &phaseErrRow{Workload: eds.Workload, Platform: eds.Platform, Phase: eph.Name}
					rows[rowKey] = row
					order = append(order, rowKey)
				}
				var frac float64
				if sph.TotalAccesses > 0 {
					frac = float64(sph.MeasuredAccesses) / float64(sph.TotalAccesses)
				}
				ev, sv := counterValues(eph.Counters), counterValues(sph.Counters)
				for j, name := range counterNames {
					if ev[j] < minExactCount {
						continue
					}
					diff := float64(sv[j]) - float64(ev[j])
					if diff < 0 {
						diff = -diff
					}
					rel := diff / float64(ev[j])
					at := rowKey + "/" + layoutName + "/" + name
					events := float64(phaseEventBasis(name, eph.Counters)) * frac
					if events <= 0 {
						continue
					}
					if events >= sigSampledEvents {
						row.Significant++
						rep.Significant++
						if 100*rel > row.MaxRelErrPct {
							row.MaxRelErrPct = 100 * rel
						}
						if 100*rel > rep.MaxErrPct {
							rep.MaxErrPct = 100 * rel
							rep.MaxErrAt = at
						}
					}
					if ratio := rel / sampledBound(events); ratio > row.EnvelopeRatio {
						row.EnvelopeRatio = ratio
						if ratio > rep.WorstEnvelopeRatio {
							rep.WorstEnvelopeRatio = ratio
							rep.WorstEnvelopeAt = at
						}
					}
				}
			}
		}
	}
	sort.Strings(order)
	for _, k := range order {
		rep.Phases = append(rep.Phases, *rows[k])
	}
	return rep, nil
}
