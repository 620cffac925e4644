package sim

import (
	"mosaic/internal/trace"
)

// RunBatch replays one trace through several engines — one per layout of a
// sweep's protocol, of either kind — under a shared sampling config (the
// zero Sampling is exact replay). Phased traces and large traces
// (≥ fuseMinBytes of columns) replay in a single fused driver call; small
// ones make one driver call per engine. Results are bit-identical either
// way: engines share no mutable state, fusion only re-orders which engine
// touches which trace block first, and the window schedule is purely
// positional, so every engine of a fused batch measures the same windows a
// solo run would.
func RunBatch(engines []Engine, tr *trace.Trace, s Sampling) ([]Result, error) {
	if len(engines) == 1 || tr.Phases() != nil || tr.Columns().Bytes() >= fuseMinBytes {
		return replayFused(engines, tr, s)
	}
	out := make([]Result, len(engines))
	for i, e := range engines {
		res, err := runOne(e, tr, s)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// BatchSpan picks how many layouts one replay job should fuse: enough to
// amortize the trace pass across the batch, but never so many that the
// sweep's job list shrinks below ~2 jobs per worker — a fully fused pair is
// worthless if it leaves workers idle. The span is capped at 16 because the
// fused kernel's win flattens once the batch's combined TLB/cache state no
// longer fits beside the trace block.
func BatchSpan(jobs, workers int) int {
	if workers < 1 {
		workers = 1
	}
	span := jobs / (2 * workers)
	if span < 1 {
		return 1
	}
	if span > 16 {
		return 16
	}
	return span
}
