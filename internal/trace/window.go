package trace

// Systematic interval sampling (SMARTS-style): instead of replaying every
// access of a trace, a sampled replay measures a short window at the start
// of each fixed-length period, runs a functional warmup over the accesses
// immediately preceding each window, and skips the rest entirely. The
// schedule is purely positional — it depends only on the trace length — so
// every engine the replay driver in internal/sim advances over a trace
// replays the exact same windows, whatever its layout.

// Window is one scheduled interval of accesses [Lo, Hi). Measure selects
// full measurement; otherwise the interval is functional warmup — model
// state (TLB, caches, PWCs, translator memo) advances but no counters or
// cycles accumulate. Accesses not covered by any window are skipped.
type Window struct {
	Lo, Hi  int
	Measure bool
}

// Len returns the number of accesses in the window.
func (w Window) Len() int { return w.Hi - w.Lo }

// SamplePlan describes a systematic-sampling schedule: a measurement window
// of MeasureLen accesses at the start of every Period accesses, each
// preceded by WarmupLen accesses of functional warmup. The zero value (and
// any plan with Period <= 0) means exact replay: one measurement window
// covering the whole trace.
//
// A plan whose windows cover every access (MeasureLen >= Period) degenerates
// to exact replay and is required to be bit-identical to it — warmup
// intervals are clipped against already-scheduled windows, so none survive.
//
// PrologueLen stretches the first window: the opening PrologueLen accesses
// replay exactly, in one measurement window, before the periodic schedule
// takes over. Traces front-load their transient — compulsory TLB and cache
// misses cluster in the opening accesses, where the miss cost per access can
// be an order of magnitude above the whole-trace average — so a schedule
// that samples the prologue like any other window lets that burst leak into
// the extrapolation. Measuring the prologue exactly removes the bias at the
// source and gives the estimator a separate stratum (see sim.Sampling): the
// prologue's counters are taken as-is and only the steady-state remainder is
// scaled up.
type SamplePlan struct {
	Period      int
	MeasureLen  int
	WarmupLen   int
	PrologueLen int
}

// Enabled reports whether the plan actually samples (Period > 0).
func (p SamplePlan) Enabled() bool { return p.Period > 0 }

// Windows returns the replay schedule over a trace of n accesses: clipped
// to [0, n), in ascending order, non-overlapping, with abutting measurement
// windows merged. Accesses between windows are meant to be skipped.
func (p SamplePlan) Windows(n int) []Window {
	if n <= 0 {
		return nil
	}
	if !p.Enabled() {
		return []Window{{Lo: 0, Hi: n, Measure: true}}
	}
	measure := p.MeasureLen
	if measure < 1 {
		measure = 1
	}
	warm := p.WarmupLen
	if warm < 0 {
		warm = 0
	}
	var out []Window
	for start := 0; start < n; start += p.Period {
		ml := measure
		if start == 0 && p.PrologueLen > ml {
			ml = p.PrologueLen
		}
		mHi := min(start+ml, n)
		// Warmup for this window, clipped against whatever is already
		// scheduled (an earlier window may reach past start-warm).
		wLo := start - warm
		if k := len(out); k > 0 && wLo < out[k-1].Hi {
			wLo = out[k-1].Hi
		}
		if wLo < 0 {
			wLo = 0
		}
		if wLo < start {
			out = append(out, Window{Lo: wLo, Hi: start})
		}
		// The measurement window, merged into a preceding abutting one.
		if k := len(out); k > 0 && out[k-1].Measure && out[k-1].Hi >= start {
			if mHi > out[k-1].Hi {
				out[k-1].Hi = mHi
			}
		} else {
			out = append(out, Window{Lo: start, Hi: mHi, Measure: true})
		}
	}
	return out
}

// PrologueMeasured returns the length of the first measurement window over
// a trace of n accesses — the exactly-measured prologue stratum of the
// stratified extrapolation. Under a disabled or whole-trace-covering plan
// this is n itself (one merged window).
func (p SamplePlan) PrologueMeasured(n int) int {
	for _, w := range p.Windows(n) {
		if w.Measure {
			return w.Len()
		}
	}
	return 0
}

// Measured returns how many of n accesses fall inside measurement windows.
func (p SamplePlan) Measured(n int) int {
	total := 0
	for _, w := range p.Windows(n) {
		if w.Measure {
			total += w.Len()
		}
	}
	return total
}
