package sim

import (
	"sync"

	"mosaic/internal/ckpt"
	"mosaic/internal/trace"
)

// Windowed configures parallel windowed replay: the trace's replay schedule
// is split into K contiguous chunks (trace.WindowPlan) and the chunks are
// replayed concurrently, each worker on its own engines.
//
// A chunk boundary can only be crossed with the exact machine state at that
// position, so workers run *segments*: the first segment starts at position
// 0 on the caller's engines, and every other segment starts at a boundary
// whose MOSCKPT01 checkpoint (all engines of the batch) was found in Store.
// Checkpoints carry cumulative clock and accumulator state, so the last
// segment's harvest is the whole-trace answer — bit-identical to
// unwindowed replay by construction, whatever subset of boundaries was
// cached. Segments snapshot the boundaries they run through and save them
// to Store, so a cold run (one sequential segment — plain fused replay plus
// snapshot cost) makes every later run of the same sweep parallel.
//
// Engines cloned for non-first workers come from Pool and share the
// caller's address spaces directly: a clone takes no SpaceCache reference
// of its own — the caller's job holds the space reference for the whole
// RunBatchWindowed call, and every clone is returned to Pool before it
// returns, so per-engine refcounting never goes through the cache (see
// TestWindowedSpaceRefs).
type Windowed struct {
	// K is the target chunk count; values < 2 disable windowing.
	K int
	// Store, when non-nil, is the checkpoint cache boundary states are
	// loaded from and saved to. Requires Keys.
	Store *ckpt.Store
	// Keys identifies each engine's checkpoint stream — one per engine,
	// encoding everything state depends on (trace, platform, layout
	// configuration, engine kind, fidelity, sampling plan). Positions are
	// deliberately excluded: checkpoints are shared across K values.
	Keys []string
	// Pool supplies per-worker engine clones; nil builds throwaway engines.
	Pool *Pool
	// Workers bounds concurrent window workers; values < 1 mean one per
	// segment. Callers embedding windowed replay inside a scheduler share
	// the scheduler's budget by setting this (see internal/experiment).
	Workers int
}

// Enabled reports whether the config actually windows.
func (w Windowed) Enabled() bool { return w.K > 1 }

// segment is one worker's contiguous share of the replay schedule.
type segment struct {
	span
	first bool // starts at trace position 0 on the caller's engines
	// persist flags which savePos entries are chunk boundaries to write to
	// the checkpoint store; phase-attribution snapshots stay segment-local
	// (they would be rewritten on every warm run otherwise).
	persist []bool
}

// addSavePos inserts a snapshot position, keeping savePos ascending and
// deduplicated; a position serving both a chunk boundary and a phase
// boundary keeps its persist flag.
func (g *segment) addSavePos(pos int, persist bool) {
	i := 0
	for i < len(g.savePos) && g.savePos[i] < pos {
		i++
	}
	if i < len(g.savePos) && g.savePos[i] == pos {
		if persist {
			g.persist[i] = true
		}
		return
	}
	g.savePos = append(g.savePos, 0)
	copy(g.savePos[i+1:], g.savePos[i:])
	g.savePos[i] = pos
	g.persist = append(g.persist, false)
	copy(g.persist[i+1:], g.persist[i:])
	g.persist[i] = persist
}

// RunBatchWindowed is RunBatch with parallel windowed replay: segments
// between cached boundaries, the last segment's cumulative harvest as the
// answer, missing boundaries snapshotted and saved for the next run. A
// disabled config or a trace too small to chunk falls back to RunBatch —
// results are bit-identical either way.
func RunBatchWindowed(engines []Engine, tr *trace.Trace, s Sampling, w Windowed) ([]Result, error) {
	if !w.Enabled() || len(engines) == 0 {
		return RunBatch(engines, tr, s)
	}
	// Multi-phase traces chunk over the phased schedule so no chunk window
	// ever spans a phase boundary; under an exact plan the phased schedule
	// covers the same accesses and the cut positions are identical to the
	// phase-blind even split.
	phases := tr.Phases()
	var chunks []trace.Chunk
	if phases != nil {
		chunks = trace.WindowPlan{Windows: w.K}.ChunksFor(
			s.Plan().PhasedWindows(phases, tr.Len()), !s.Enabled())
	} else {
		chunks = trace.WindowPlan{Windows: w.K}.Chunks(s.Plan(), tr.Len())
	}
	if len(chunks) < 2 {
		return RunBatch(engines, tr, s)
	}
	useStore := w.Store != nil && len(w.Keys) == len(engines)

	// A boundary is usable only when every engine of the batch has a valid
	// checkpoint there — a partial set would split the batch's fusion.
	// Unreadable files (truncated, stale, colliding) count as misses and
	// are regenerated, mirroring the trace cache.
	seeds := make([][]*ckpt.MachineState, len(chunks))
	if useStore {
		for ci := 1; ci < len(chunks); ci++ {
			ss := make([]*ckpt.MachineState, len(engines))
			ok := true
			for k := range engines {
				st, err := w.Store.Load(w.Keys[k], chunks[ci].Pos)
				if err != nil || st == nil {
					ok = false
					break
				}
				ss[k] = st
			}
			if ok {
				seeds[ci] = ss
			}
		}
	}

	// Phased traces force window-delta accounting: their phase-boundary
	// snapshots need the component sums, and with full coverage the
	// accounting is bit-identical to exact counters.
	sampled := s.Enabled() || phases != nil
	var segs []segment
	cur := segment{first: true, span: span{sampled: sampled}}
	cur.windows = append(cur.windows, chunks[0].Windows...)
	for ci := 1; ci < len(chunks); ci++ {
		if seeds[ci] != nil {
			segs = append(segs, cur)
			cur = segment{span: span{seeds: seeds[ci], sampled: sampled}}
		} else if useStore {
			cur.addSavePos(chunks[ci].Pos, true)
		}
		cur.windows = append(cur.windows, chunks[ci].Windows...)
	}
	segs = append(segs, cur)

	// A multi-phase trace needs every engine snapshotted at each phase's
	// prologue end and phase end; route each position into the segment
	// whose window range covers it. A position that collides with a chunk
	// boundary shares the boundary's snapshot.
	var metas []phaseMeta
	if phases != nil {
		var positions []int
		metas, positions = phasedMeta(s.Plan(), phases, tr.Len())
		for _, pos := range positions {
			for si := range segs {
				ws := segs[si].windows
				if len(ws) > 0 && pos > ws[0].Lo && pos <= ws[len(ws)-1].Hi {
					segs[si].addSavePos(pos, false)
					break
				}
			}
		}
	}

	outs, err := runSegments(engines, tr, w, segs)
	if err != nil {
		return nil, err
	}

	// Persist the chunk boundaries the segments ran through.
	if useStore {
		for si, seg := range segs {
			for j, pos := range seg.savePos {
				snaps := outs[si].saved[j]
				if !seg.persist[j] || snaps == nil {
					continue
				}
				for k := range engines {
					if err := w.Store.Save(w.Keys[k], pos, snaps[k]); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	if phases != nil {
		// Assemble per-phase attribution from the snapshots (a seeded
		// segment's seed checkpoint is the cumulative state at its start
		// position, covering phase boundaries that coincide with cached
		// chunk boundaries).
		snaps := make(map[int][]*ckpt.MachineState)
		for si, seg := range segs {
			if seg.seeds != nil && len(seg.windows) > 0 {
				snaps[seg.windows[0].Lo] = seg.seeds
			}
			for j, pos := range seg.savePos {
				if outs[si].saved[j] != nil {
					snaps[pos] = outs[si].saved[j]
				}
			}
		}
		return assemblePhased(s, metas, tr.Len(), kernels(engines), snaps)
	}

	// Checkpoints are cumulative, so the last segment's harvest is the
	// whole-trace totals; earlier segments exist to parallelize and to
	// fill missing checkpoints.
	var measured uint64
	for _, o := range outs {
		measured += o.measured
	}
	return s.estimate(outs[len(outs)-1].ctrs, outs[0].pro, measured, tr.Len()), nil
}

// addCounters accumulates src's counters into dst field-wise.
func addCounters(dst *Result, src Result) {
	d := counterPtrs(dst)
	s := counterPtrs(&src)
	for i := range d {
		*d[i] += *s[i]
	}
}

// runSegments replays the segments concurrently, bounded by w.Workers. The
// first segment runs on the caller's engines; every other worker clones
// its engines from w.Pool (sharing the caller's address spaces — no
// SpaceCache traffic) and returns them before finishing.
func runSegments(engines []Engine, tr *trace.Trace, w Windowed, segs []segment) ([]harvest, error) {
	workers := w.Workers
	if workers < 1 || workers > len(segs) {
		workers = len(segs)
	}
	outs := make([]harvest, len(segs))
	errs := make([]error, len(segs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for si := range segs {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outs[si], errs[si] = runOneSegment(engines, tr, w.Pool, segs[si])
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// runOneSegment drives one worker's segment, on the caller's engines for
// the first segment and on pooled clones otherwise.
func runOneSegment(engines []Engine, tr *trace.Trace, pool *Pool, seg segment) (harvest, error) {
	batch := engines
	if !seg.first {
		batch = make([]Engine, 0, len(engines))
		defer func() {
			if pool != nil {
				for _, e := range batch {
					pool.Put(e)
				}
			}
		}()
		for _, e := range engines {
			c, err := clone(pool, e)
			if err != nil {
				return harvest{}, err
			}
			batch = append(batch, c)
		}
	}
	return drive(kernels(batch), tr, seg.span)
}
