package sim

import (
	"mosaic/internal/pmu"
	"mosaic/internal/trace"
)

// kernel is the replay contract the driver advances: the full timing
// machine (*cpu.Machine) and the partial simulator (*partialsim.Simulator)
// both implement it — the partial simulator is the full machine with the
// timing model left out (the paper's Figure 1). Each kernel owns its
// in-flight replay state, so the driver holds none and kernels of either
// kind fuse freely in one batch.
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

// FuseBlock is the number of accesses the driver replays per kernel before
// advancing to the next kernel of a batch: large enough to amortize the
// per-kernel switch, small enough that the block's trace columns (~50KB)
// stay cache-resident while every kernel in the batch streams them.
const FuseBlock = 262144

// span is the replay schedule one driver call walks.
type span struct {
	windows []trace.Window
	// savePos lists trace positions, ascending, at which to harvest every
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
	ctrs []Result
	// pro holds each kernel's counters as of the end of the first
	// measurement window — the prologue stratum of a sampled replay (nil
	// without sampled accounting).
	pro []Result
	// saved is indexed [savePos][kernel]: each kernel's cumulative
	// counters at that position. A position the windows never reach stays
	// nil.
	saved    [][]Result
	measured uint64 // accesses inside measurement windows
}

// drive is the one replay loop: it walks the span's windows block by
// block, replaying each block through every kernel before touching the
// next, so the trace is decoded once per block for the whole batch.
// Kernels share no mutable state and each sees the same windows in order,
// so every kernel's counters are bit-identical to a solo replay.
//
//mosvet:hotpath
func drive(ks []kernel, tr *trace.Trace, sp span) (harvest, error) {
	var out harvest
	for _, kn := range ks {
		kn.Begin(sp.sampled)
	}
	if len(sp.savePos) > 0 {
		out.saved = make([][]Result, len(sp.savePos))
	}
	cols := tr.Columns()
	si := 0
	for _, w := range sp.windows {
		if w.Measure {
			out.measured += uint64(w.Len())
		}
		for lo := w.Lo; lo < w.Hi; lo += FuseBlock {
			hi := min(lo+FuseBlock, w.Hi)
			for _, kn := range ks {
				if !w.Measure {
					if err := kn.Warm(tr.Name, cols, lo, hi); err != nil {
						return out, err
					}
					continue
				}
				if sp.sampled && lo == w.Lo {
					kn.OpenWindow()
				}
				if err := kn.Measure(tr.Name, cols, lo, hi); err != nil {
					return out, err
				}
				if sp.sampled && hi == w.Hi {
					kn.CloseWindow()
				}
			}
		}
		for si < len(sp.savePos) && sp.savePos[si] == w.Hi {
			out.saved[si] = harvestAll(ks)
			si++
		}
		if sp.sampled && w.Measure && out.pro == nil {
			out.pro = harvestAll(ks)
		}
	}
	out.ctrs = harvestAll(ks)
	return out, nil
}

func harvestAll(ks []kernel) []Result {
	out := make([]Result, len(ks))
	for k, kn := range ks {
		out[k].Counters, out[k].WalkRefs = kn.Harvest()
	}
	return out
}

// kernels returns the batch's replay kernels, each synced to its engine's
// fidelity settings.
func kernels(engines []Engine) []kernel {
	ks := make([]kernel, len(engines))
	for k, e := range engines {
		ks[k] = e.kernel()
	}
	return ks
}

// RunBatch replays one trace through several engines — one per layout of a
// sweep's protocol, of either kind — in a single fused driver call under a
// shared sampling config (the zero Sampling is exact replay). Results are
// bit-identical to replaying each engine alone: engines share no mutable
// state, fusion only re-orders which engine touches which trace block
// first, and the window schedule is purely positional, so every engine of
// a fused batch measures the same windows a solo run would. Callers size
// batches with BatchSpan, so a batch of more than one engine exists only
// when its trace is large enough for fusion to pay. A multi-phase trace
// replays its phased schedule and carries per-phase attribution (see
// phases.go).
func RunBatch(engines []Engine, tr *trace.Trace, s Sampling) ([]Result, error) {
	ks := kernels(engines)
	n := tr.Len()
	phases := tr.Phases()
	windows := s.Plan().PhasedWindows(phases, n)
	if phases != nil {
		// Window-delta accounting even for exact plans: the phase-boundary
		// harvests need the component sums.
		metas, positions := phasedMeta(s.Plan(), phases, n)
		out, err := drive(ks, tr, span{windows: windows, savePos: positions, sampled: true})
		if err != nil {
			return nil, err
		}
		return assemblePhased(s, metas, n, len(ks), savedByPos(positions, out.saved))
	}
	out, err := drive(ks, tr, span{windows: windows, sampled: s.Enabled()})
	if err != nil {
		return nil, err
	}
	return s.estimate(out.ctrs, out.pro, out.measured, n), nil
}
