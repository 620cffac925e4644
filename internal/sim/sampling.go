package sim

import (
	"mosaic/internal/trace"
)

// Sampling configures systematic interval sampling (SMARTS-style) as a
// first-class fidelity mode of the replay stack: an exactly-measured
// prologue of PrologueLen accesses, then a measurement window of MeasureLen
// accesses at the start of every Period accesses, each preceded by
// WarmupLen accesses of functional warmup (model state advances, no cycle
// accounting), with everything in between skipped. The zero value means
// exact replay — every access measured, bit-identical to the pre-sampling
// pipeline.
//
// Windowed counters are extrapolated to whole-trace estimates with a
// stratified estimator: the prologue stratum — where compulsory misses
// cluster and per-access costs are far from the steady state — is taken
// as-is, and only the periodic windows' counts are scaled up to cover the
// remainder of the trace. Result records the coverage so downstream
// consumers can tell estimates from exact measurements. The schedule is
// purely positional (trace.SamplePlan): every engine replaying a trace under
// one config measures the same windows, whatever its layout.
type Sampling struct {
	// Period is the distance between measurement-window starts, in
	// accesses. Zero or negative disables sampling.
	Period int
	// MeasureLen is the measured accesses per window (values < 1 act as 1;
	// values >= Period measure the whole trace, which must be — and is
	// tested to be — bit-identical to exact replay).
	MeasureLen int
	// WarmupLen is the functional-warmup accesses replayed immediately
	// before each measurement window. It bounds the staleness bias: a
	// window access whose TLB entry, PWC line, or page-table cache line was
	// last touched in skipped territory pays a cold-state cost exact replay
	// would not, and the bias decays only as the warmup grows to cover the
	// workload's reuse distances.
	WarmupLen int
	// PrologueLen stretches the first measurement window so the opening
	// accesses — the compulsory-miss transient — are measured exactly and
	// kept out of the extrapolation (the prologue stratum).
	PrologueLen int
}

// DefaultSampling is the sweep default when sampling is requested without
// explicit parameters: an exact 32K-access prologue, then 3K-access windows
// every 64K accesses, each behind 8K accesses of functional warmup. On the
// bundled workloads at sweep-scale trace lengths (millions of accesses)
// this replays ~17% of the trace for a 5-7× replay-stage speedup, with
// every statistically resolvable counter within 1% of exact replay (see
// docs/engine.md, "Sampled replay", for the accuracy contract).
var DefaultSampling = Sampling{Period: 65536, MeasureLen: 3072, WarmupLen: 8192, PrologueLen: 32768}

// Enabled reports whether the config actually samples.
func (s Sampling) Enabled() bool { return s.Period > 0 }

// Plan converts the config to the positional schedule the replay kernels
// iterate.
func (s Sampling) Plan() trace.SamplePlan {
	return trace.SamplePlan{
		Period:      s.Period,
		MeasureLen:  s.MeasureLen,
		WarmupLen:   s.WarmupLen,
		PrologueLen: s.PrologueLen,
	}
}

// scaleCounter extrapolates one windowed counter by the inverse measured
// fraction, rounding to nearest. float64 is exact for every plausible
// counter magnitude (< 2^53) and keeps the scaling deterministic.
func scaleCounter(v uint64, f float64) uint64 {
	if v == 0 {
		return 0
	}
	return uint64(float64(v)*f + 0.5)
}

// counterPtrs lists the extrapolated fields of a result — the full PMU
// counter set plus the partial simulator's WalkRefs — in a fixed order so
// the stratified estimator can walk a result and its prologue stratum in
// lockstep.
func counterPtrs(r *Result) [15]*uint64 {
	c := &r.Counters
	return [15]*uint64{
		&c.R, &c.H, &c.M, &c.C, &c.Instructions,
		&c.L1DLoadsProgram, &c.L1DLoadsWalker,
		&c.L2LoadsProgram, &c.L2LoadsWalker,
		&c.L3LoadsProgram, &c.L3LoadsWalker,
		&c.DRAMLoadsProgram, &c.DRAMLoadsWalker,
		&c.TLBLookups, &r.WalkRefs,
	}
}

// extrapolate turns a windowed result into a whole-trace estimate and
// records the coverage. pro is the prologue stratum — the counters as of
// the end of the first measurement window, which spans proMeasured accesses.
//
// The estimator is stratified: the prologue's counts are exact and kept
// as-is; each remaining counter's tail (final minus prologue) is scaled by
// the tail's inverse coverage (total-proMeasured)/(measured-proMeasured).
// This keeps the front-loaded transient — compulsory misses, cold-cache
// walk latencies — out of the scale-up entirely; layouts whose rare events
// all land inside the prologue (huge pages' handful of compulsory TLB
// misses) are reproduced exactly.
//
// Degenerate cases pass counters through unchanged or fall back to global
// scaling: measured == 0 (empty trace) and full coverage are untouched —
// full coverage must stay bit-identical to exact replay — and a schedule
// with no periodic windows beyond the prologue scales globally.
func (s Sampling) extrapolate(res, pro Result, proMeasured, measured, total uint64) Result {
	res.MeasuredAccesses = measured
	res.TotalAccesses = total
	if measured == 0 || measured >= total {
		return res
	}
	tailMeasured := measured - proMeasured
	tailTotal := total - proMeasured
	dst := counterPtrs(&res)
	if proMeasured == 0 || tailMeasured == 0 {
		f := float64(total) / float64(measured)
		for _, v := range dst {
			*v = scaleCounter(*v, f)
		}
		return res
	}
	f := float64(tailTotal) / float64(tailMeasured)
	src := counterPtrs(&pro)
	for i, v := range dst {
		base := *src[i]
		*v = base + scaleCounter(*v-base, f)
	}
	return res
}

// estimate turns a driver harvest into a whole-trace result: under
// sampling the windowed counters are extrapolated against the prologue
// stratum; exact counters pass through unchanged.
func (s Sampling) estimate(ctrs, pro Result, measured uint64, n int) Result {
	if !s.Enabled() {
		return ctrs
	}
	proMeasured := uint64(s.Plan().PrologueMeasured(n))
	return s.extrapolate(ctrs, pro, proMeasured, measured, uint64(n))
}
