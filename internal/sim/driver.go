package sim

import (
	"mosaic/internal/pmu"
	"mosaic/internal/trace"
)

// kernel is the replay contract the driver advances: the full timing
// machine (*cpu.Machine) and the partial simulator (*partialsim.Simulator)
// both implement it — the partial simulator is the full machine with the
// timing model left out (the paper's Figure 1). Each kernel owns its
// in-flight replay state, so the driver holds none; one driver call
// advances one kernel.
type kernel interface {
	// Begin starts a replay from the kernel's current component state with
	// zeroed counters; sampled selects window-delta stat accounting.
	Begin(sampled bool)
	// Measure replays accesses [lo, hi) at full fidelity.
	Measure(name string, cols *trace.Columns, lo, hi int) error
	// Warm advances model state through [lo, hi) without counting.
	Warm(name string, cols *trace.Columns, lo, hi int) error
	// OpenWindow and CloseWindow bracket a measurement window under
	// sampled accounting.
	OpenWindow()
	CloseWindow()
	// Harvest returns the counters so far plus the walk-reference count.
	Harvest() (pmu.Counters, uint64)
}

// span is the replay schedule one driver call walks.
type span struct {
	windows []trace.Window
	// savePos lists trace positions, ascending, at which to harvest the
	// kernel's cumulative counters. Each must be some window's Hi — a
	// phase's prologue end or phase end always is — and is harvested right
	// after that window closes; any other position is never harvested.
	savePos []int
	// sampled selects window-delta stat accounting: required for
	// extrapolation and for phase-boundary harvests, bit-identical to
	// exact counters under full coverage.
	sampled bool
}

// harvest is one driver call's output.
type harvest struct {
	ctrs Result
	// pro holds the counters as of the end of the first measurement
	// window — the prologue stratum of a sampled replay (zero without
	// sampled accounting).
	pro Result
	// saved holds the cumulative counters at each reached save position,
	// in savePos order. Positions are harvested in order, so the reached
	// ones are a prefix of savePos.
	saved    []Result
	measured uint64 // accesses inside measurement windows
}

// drive is the one replay loop: it walks the span's windows in order,
// warming the kernel through each warmup window and measuring each
// measurement window in one call.
//
//mosvet:hotpath
func drive(kn kernel, tr *trace.Trace, sp span) (harvest, error) {
	var out harvest
	kn.Begin(sp.sampled)
	if len(sp.savePos) > 0 {
		out.saved = make([]Result, 0, len(sp.savePos))
	}
	cols := tr.Columns()
	si := 0
	proDone := false
	for _, w := range sp.windows {
		if w.Measure {
			out.measured += uint64(w.Len())
			if sp.sampled {
				kn.OpenWindow()
			}
			if err := kn.Measure(tr.Name, cols, w.Lo, w.Hi); err != nil {
				return out, err
			}
			if sp.sampled {
				kn.CloseWindow()
			}
		} else if err := kn.Warm(tr.Name, cols, w.Lo, w.Hi); err != nil {
			return out, err
		}
		for si < len(sp.savePos) && sp.savePos[si] == w.Hi {
			out.saved = append(out.saved, harvestOne(kn))
			si++
		}
		if sp.sampled && w.Measure && !proDone {
			out.pro = harvestOne(kn)
			proDone = true
		}
	}
	out.ctrs = harvestOne(kn)
	return out, nil
}

func harvestOne(kn kernel) Result {
	var r Result
	r.Counters, r.WalkRefs = kn.Harvest()
	return r
}

// run replays one trace through one kernel under a sampling config (the
// zero Sampling is exact replay). A multi-phase trace replays its phased
// schedule and carries per-phase attribution (see phases.go).
func run(kn kernel, tr *trace.Trace, s Sampling) (Result, error) {
	n := tr.Len()
	phases := tr.Phases()
	windows := s.Plan().PhasedWindows(phases, n)
	if phases != nil {
		// Window-delta accounting even for exact plans: the phase-boundary
		// harvests need the component sums.
		metas, positions := phasedMeta(s.Plan(), phases, n)
		out, err := drive(kn, tr, span{windows: windows, savePos: positions, sampled: true})
		if err != nil {
			return Result{}, err
		}
		return assemblePhased(s, metas, n, savedByPos(positions, out.saved))
	}
	out, err := drive(kn, tr, span{windows: windows, sampled: s.Enabled()})
	if err != nil {
		return Result{}, err
	}
	return s.estimate(out.ctrs, out.pro, out.measured, n), nil
}
