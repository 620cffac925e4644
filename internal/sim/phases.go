package sim

import (
	"fmt"
	"slices"

	"mosaic/internal/pmu"
	"mosaic/internal/trace"
)

// Phased replay: a multi-phase trace (trace.Phases) carries regime markers,
// and both replay entry points — Engine.Run and Engine.RunSampled —
// attribute counters to each phase and, under sampling, extrapolate
// within phase boundaries instead of across them.
//
// The mechanism is the driver's save positions: the engine's cumulative
// counters are harvested at each phase's prologue end and phase end, and
// the field-wise difference of consecutive harvests is exactly the phase's
// contribution. Replay runs under sampled (window-delta) stat accounting
// even for exact plans so the harvests read the component sums; with full
// coverage that accounting is bit-identical to exact counters, so an exact
// phased replay's headline result telescopes to the same counters a
// phase-blind replay produces.
//
// Under sampling, each phase is its own stratum set: the phased schedule
// (SamplePlan.PhasedWindows) restarts the plan inside every phase — no
// window spans a boundary, and each phase opens with its own exactly
// measured prologue — and the estimator scales each phase's windowed
// counters by that phase's own coverage. A phase transition inside a skip
// stretch therefore never leaks one regime's rates into another's estimate.

// PhaseResult is one phase's share of a replay: whole-phase counter
// estimates plus the sampled-replay coverage behind them (full coverage
// under exact replay).
type PhaseResult struct {
	Name     string
	Counters pmu.Counters
	// WalkRefs mirrors Result.WalkRefs for the partial simulator.
	WalkRefs uint64
	// MeasuredAccesses and TotalAccesses are the phase's sampling coverage;
	// the counters are extrapolated whenever MeasuredAccesses < TotalAccesses.
	MeasuredAccesses uint64
	TotalAccesses    uint64
}

// phaseMeta is the positional skeleton of one phase's schedule: the
// save positions and coverage the per-phase estimator needs. Purely
// positional: it depends on the plan and the trace, not on the engine.
type phaseMeta struct {
	ph trace.Phase
	// proHi is the end of the phase's first measurement window (the phase
	// prologue stratum); endHi is the end of the phase's last scheduled
	// window — the cumulative counters there equal the counters at the
	// phase boundary, because skipped accesses accumulate nothing.
	proHi, endHi int
	// proMeasured and measured count the prologue's and the whole phase's
	// accesses inside measurement windows.
	proMeasured, measured uint64
}

// phasedMeta computes each phase's save positions under the plan's
// phased schedule, plus the ascending deduplicated position list to pass as
// the driver's savePos.
func phasedMeta(plan trace.SamplePlan, phases []trace.Phase, n int) ([]phaseMeta, []int) {
	sched := plan.PhasedWindows(phases, n)
	metas := make([]phaseMeta, 0, len(phases))
	positions := make([]int, 0, 2*len(phases))
	for _, ph := range phases {
		ws := trace.PhaseWindows(sched, ph)
		pm := phaseMeta{ph: ph, endHi: ws[len(ws)-1].Hi}
		for _, w := range ws {
			if !w.Measure {
				continue
			}
			pm.measured += uint64(w.Len())
			if pm.proHi == 0 {
				pm.proHi = w.Hi
				pm.proMeasured = uint64(w.Len())
			}
		}
		metas = append(metas, pm)
		positions = append(positions, pm.proHi, pm.endHi)
	}
	slices.Sort(positions)
	return metas, slices.Compact(positions)
}

// subResult returns a - b field-wise over the extrapolated counter set.
// Harvested counters are cumulative, so consecutive-harvest differences are
// phase contributions and telescope to the whole-trace totals.
func subResult(a, b Result) Result {
	d := counterPtrs(&a)
	s := counterPtrs(&b)
	for i := range d {
		*d[i] -= *s[i]
	}
	return a
}

// addCounters accumulates src's counters into dst field-wise.
func addCounters(dst *Result, src Result) {
	d := counterPtrs(dst)
	s := counterPtrs(&src)
	for i := range d {
		*d[i] += *s[i]
	}
}

// assemblePhased turns the counters harvested at each save position into
// one result with phase attribution: for each phase, the cumulative
// counters at its prologue end and phase end are differenced against the
// previous phase's end and extrapolated with the phase's own coverage; the
// headline result is the sum of the per-phase estimates. Under exact
// replay every phase is fully covered, extrapolation passes through, and
// the sum telescopes to the exact whole-trace counters bit-identically.
func assemblePhased(s Sampling, metas []phaseMeta, n int, saved map[int]Result) (Result, error) {
	var prev, sum Result
	var measuredSum uint64
	phs := make([]PhaseResult, 0, len(metas))
	for _, pm := range metas {
		end, endOK := saved[pm.endHi]
		pro, proOK := saved[pm.proHi]
		if !endOK || !proOK {
			return Result{}, fmt.Errorf("sim: phase %q boundary (%d, %d) was not harvested",
				pm.ph.Name, pm.proHi, pm.endHi)
		}
		pr := s.extrapolate(subResult(end, prev), subResult(pro, prev),
			pm.proMeasured, pm.measured, uint64(pm.ph.Len()))
		phs = append(phs, PhaseResult{
			Name:             pm.ph.Name,
			Counters:         pr.Counters,
			WalkRefs:         pr.WalkRefs,
			MeasuredAccesses: pr.MeasuredAccesses,
			TotalAccesses:    pr.TotalAccesses,
		})
		addCounters(&sum, pr)
		measuredSum += pm.measured
		prev = end
	}
	sum.Phases = phs
	if s.Enabled() {
		sum.MeasuredAccesses = measuredSum
		sum.TotalAccesses = uint64(n)
	}
	return sum, nil
}

// savedByPos indexes the driver's harvests by save position.
func savedByPos(positions []int, saved []Result) map[int]Result {
	m := make(map[int]Result, len(saved))
	for i, r := range saved {
		m[positions[i]] = r
	}
	return m
}
