package layout

import (
	"mosaic/internal/arch"
	"mosaic/internal/mem"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
)

// ProfileMisses is the simulated PEBS step of the sliding-window heuristic:
// it replays the trace through the platform's TLB assuming an all-4KB
// layout and histograms the L2 TLB misses per 2MB chunk of the target's
// concatenated space — the same information content as the paper's
// hardware TLB-miss sampling.
func ProfileMisses(tr *trace.Trace, cfg arch.TLBConfig, t Target) MissProfile {
	const chunk = uint64(mem.Page2M)
	n := (t.Space() + chunk - 1) / chunk
	p := MissProfile{ChunkSize: chunk, Counts: make([]uint64, n)}
	tb := tlb.New(cfg)
	cols := tr.Columns()
	for i := 0; i < cols.Len(); i++ {
		va := cols.VA(i)
		if tb.Lookup(va, mem.Page4K) == tlb.Miss {
			if off, ok := t.ConcatOffset(va); ok {
				p.Counts[off/chunk]++
			}
		}
	}
	return p
}
