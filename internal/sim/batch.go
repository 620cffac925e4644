package sim

import (
	"mosaic/internal/trace"
)

// maxBatch caps the engines one fused replay job takes (BatchSpan): the
// fused kernel's win flattens once the batch's combined TLB/cache state no
// longer fits beside the trace block.
const maxBatch = 16

// fuseMinBytes gates fusion by trace size (BatchSpan). Fusing means every
// engine's model state (TLB, caches, translator — under a megabyte each) is
// re-streamed at each block switch; that only pays off when the
// alternative — re-streaming the whole trace once per engine — is more
// expensive, i.e. when the trace's columns dwarf the last-level cache.
// Below the threshold each job replays the (cache-resident) trace through
// one engine. Tests lower this to exercise multi-layout batches on small
// fixtures.
var fuseMinBytes = 64 << 20

// BatchSpan picks how many of a pair's layouts one replay job fuses over
// tr. Below fuseMinBytes the span is 1, phased trace or not: each job is
// one layout and holds one engine, since below it fusing buys nothing and
// a multi-layout job would only hold more engines and spaces at once. At or
// above it, jobs is the number of layout replays the sweep schedules and
// the span is enough to amortize the trace pass across the batch, but never
// so many that the sweep's job list shrinks below ~2 jobs per worker — a
// fully fused pair is worthless if it leaves workers idle.
func BatchSpan(tr *trace.Trace, jobs, workers int) int {
	if tr.Columns().Bytes() < fuseMinBytes {
		return 1
	}
	if workers < 1 {
		workers = 1
	}
	return min(max(jobs/(2*workers), 1), maxBatch)
}
