// Package cpu is the timing model — the modelled "real machine" whose
// runtime R the paper's models try to predict. It replays a memory access
// trace through the virtual-memory subsystem (TLB → page walker → caches)
// and produces the performance counters of the paper's Table 2.
//
// The model deliberately captures the three mechanisms that make runtime a
// non-linear function of walk cycles, which is the paper's central
// empirical finding:
//
//  1. Latency hiding. A dependent (pointer-chase) access exposes most of
//     its walk latency; an independent access exposes little, because the
//     out-of-order engine overlaps it with other work. Hiding grows with
//     the instruction gap since the previous miss, so as miss frequency
//     approaches zero the CPU becomes *increasingly* effective at
//     alleviating misses — the bend of Figure 3.
//  2. Walker throughput. Page walks occupy one of a small number of
//     hardware walkers; when misses arrive faster than walks retire, the
//     program stalls on walker availability — the super-linear regime.
//     The walk-cycle counter C sums busy cycles per walker, so two
//     concurrently busy walkers count twice and C can exceed R (the
//     Broadwell gups effect of §VI-D).
//  3. Cache pollution. Walker loads fill the same caches as program data,
//     evicting warm lines; heavy walking slows the program by more than
//     the walk cycles themselves, producing model slopes above 1
//     (Figure 9, Table 7).
package cpu

import (
	"fmt"

	"mosaic/internal/arch"
	"mosaic/internal/cache"
	"mosaic/internal/mem"
	"mosaic/internal/pmu"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/walker"
)

// Machine is one modelled core attached to an address space.
type Machine struct {
	plat  arch.Platform
	space *mem.AddressSpace
	// trans memoizes VA→(phys, pagesize) above the page-table radix walk;
	// sound because translation state is immutable during replay.
	trans *mem.Translator
	tlb   *tlb.TLB
	hier  *cache.Hierarchy
	walk  *walker.Walker
	// walkerFree holds, per hardware walker, the cycle at which it next
	// becomes available.
	walkerFree []float64

	// The in-flight replay state: run is the clock
	// and run counters; under sampled accounting sums accumulates the
	// measurement windows' component-stat deltas and base holds the open
	// window's starting stats.
	run     runState
	sampled bool
	sums    statSnap
	base    statSnap
}

// New builds a machine of the given platform over the given address space.
func New(plat arch.Platform, space *mem.AddressSpace) (*Machine, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(plat)
	if err != nil {
		return nil, err
	}
	trans := mem.NewTranslator(space.PageTable())
	return &Machine{
		plat:       plat,
		space:      space,
		trans:      trans,
		tlb:        tlb.New(plat.TLB),
		hier:       hier,
		walk:       walker.New(trans, hier, plat.PWC),
		walkerFree: make([]float64, plat.PageWalkers),
	}, nil
}

// Platform returns the machine's platform definition.
func (m *Machine) Platform() arch.Platform { return m.plat }

// Reset re-targets the machine at a platform and address space, restoring
// just-built state so a Reset machine replays any trace bit-identically to
// a freshly constructed one. When the platform is unchanged the allocated
// TLB, cache, and walker structures are retained and merely cleared, which
// is what lets the simulation engine pool (internal/sim) avoid rebuilding
// the set-associative arrays for each of a sweep's thousands of replays.
func (m *Machine) Reset(plat arch.Platform, space *mem.AddressSpace) error {
	if plat != m.plat {
		rebuilt, err := New(plat, space)
		if err != nil {
			return err
		}
		*m = *rebuilt
		return nil
	}
	m.space = space
	m.trans.Reset(space.PageTable())
	m.tlb.Reset()
	m.hier.Reset()
	m.walk.Reset(m.trans)
	for i := range m.walkerFree {
		m.walkerFree[i] = 0
	}
	m.Begin(false)
	return nil
}

// TLB exposes the TLB (for profiling tools and tests).
func (m *Machine) TLB() *tlb.TLB { return m.tlb }

// Hierarchy exposes the cache hierarchy (for tests).
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Walker exposes the page-table walker (for tests).
func (m *Machine) Walker() *walker.Walker { return m.walk }

// Breakdown decomposes the runtime into its model components — a
// diagnostic view no real PMU offers, useful for understanding where a
// layout's cycles go. The components sum to R (up to rounding).
type Breakdown struct {
	// Base is the instruction-stream cost (instructions × BaseCPI).
	Base float64
	// TLBHit is the visible cost of L2 TLB hits (the H events).
	TLBHit float64
	// WalkStall is the visible (unhidden) part of page-walk latency.
	WalkStall float64
	// WalkQueue is time spent waiting for a free hardware walker.
	WalkQueue float64
	// DataStall is the visible beyond-L1 data access latency.
	DataStall float64
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.Base + b.TLBHit + b.WalkStall + b.WalkQueue + b.DataStall
}

// runState is one replay's in-flight model state: the clock and the
// counters the replay loop accumulates itself.
type runState struct {
	now          float64 // runtime clock, cycles
	walkCycles   uint64  // the C counter: busy cycles summed per walker
	instructions uint64
	// missRate is an exponentially weighted moving average of L2 TLB
	// misses per instruction. The out-of-order engine's ability to
	// hide a dependent miss improves as the recent miss frequency
	// drops — the paper's observation that CPUs become increasingly
	// effective at alleviating TLB misses as their frequency
	// approaches zero (§I, Figure 3).
	missRate float64
	bd       Breakdown
}

const rateTau = 30000.0 // EWMA horizon, instructions

// invRateTau trades the replay loop's per-access divide for a multiply.
const invRateTau = 1 / rateTau

// Run replays the trace and returns the resulting performance counters.
// It errors if any access touches unmapped memory.
func (m *Machine) Run(tr *trace.Trace) (pmu.Counters, error) {
	ctr, _, err := m.RunDetailed(tr)
	return ctr, err
}

// RunDetailed is Run plus the runtime breakdown.
func (m *Machine) RunDetailed(tr *trace.Trace) (pmu.Counters, Breakdown, error) {
	m.Begin(false)
	cols := tr.Columns()
	if err := m.Measure(tr.Name, cols, 0, cols.Len()); err != nil {
		return pmu.Counters{}, Breakdown{}, err
	}
	ctr, _ := m.Harvest()
	return ctr, m.run.bd, nil
}

// FaultError reports an access or page-walk fault during replay: the trace
// touched memory the layout never mapped. The partial simulator reports its
// faults with the same type. It is built with plain field stores on the
// (run-aborting) fault path and formats itself lazily, keeping fmt's
// variadic boxing out of the replay kernels.
type FaultError struct {
	Trace string
	Index int    // access index within the trace (access faults only)
	VA    uint64 // faulting virtual address
	Walk  bool   // true when the page walk faulted, false for the access itself
}

func (e *FaultError) Error() string {
	if e.Walk {
		return fmt.Sprintf("cpu: %s: walk faults at %#x", e.Trace, e.VA)
	}
	return fmt.Sprintf("cpu: %s: access %d faults at %#x", e.Trace, e.Index, e.VA)
}

// statSnap captures the cumulative component counters a replay cannot
// accumulate in its own loop (the walker's cache loads happen inside
// walker.Walk). A sampled replay snapshots them at every measurement-window
// boundary and attributes the difference to the window.
type statSnap struct {
	tlb  tlb.Counts
	hier cache.Stats
}

func (m *Machine) snapStats() statSnap {
	return statSnap{tlb: m.tlb.Counts(), hier: m.hier.Stats()}
}

// Begin starts a replay from the machine's current component state: it
// zeroes the clock and the run counters, and selects window-delta stat
// accounting when sampled — the component counters then come from the
// OpenWindow/CloseWindow deltas only, so warmup and skipped accesses
// contribute nothing, which is what makes windowed counters
// extrapolatable. With full coverage that accounting is bit-identical to
// the exact counters.
func (m *Machine) Begin(sampled bool) {
	m.run = runState{}
	m.sums = statSnap{}
	m.sampled = sampled
}

// OpenWindow marks the start of a measurement window under sampled
// accounting.
func (m *Machine) OpenWindow() { m.base = m.snapStats() }

// CloseWindow attributes the component-stat deltas since OpenWindow to the
// replay.
func (m *Machine) CloseWindow() {
	now := m.snapStats()
	m.sums.tlb = m.sums.tlb.Add(now.tlb.Sub(m.base.tlb))
	m.sums.hier = m.sums.hier.Add(now.hier.Sub(m.base.hier))
}

// Harvest returns the replay's counters so far: component statistics come
// from the live components, or from the accumulated window deltas under
// sampled accounting. The full machine reports no walk-reference count of
// its own (the walker's loads are in the cache counters).
func (m *Machine) Harvest() (pmu.Counters, uint64) {
	if m.sampled {
		return counters(&m.run, m.sums), 0
	}
	return counters(&m.run, m.snapStats()), 0
}

// Measure replays accesses [lo, hi) through the full timing model.
//
//mosvet:hotpath
func (m *Machine) Measure(name string, cols *trace.Columns, lo, hi int) error {
	st := &m.run
	ooo := m.plat.OOO
	l1Lat := float64(m.plat.L1D.LatencyCycle)
	l2tlbLat := float64(m.plat.TLB.L2LatencyCycles)
	baseCPI := m.plat.BaseCPI

	for i := lo; i < hi; i++ {
		va := cols.VA(i)
		gap := cols.Gap(i)
		dep := cols.Dep(i)
		work := float64(gap) + 1
		st.instructions += uint64(gap) + 1
		st.now += work * baseCPI
		st.bd.Base += work * baseCPI
		if decay := 1 - work*invRateTau; decay > 0 {
			st.missRate *= decay
		} else {
			st.missRate = 0
		}

		phys, ps, ok := m.trans.Translate(va)
		if !ok {
			return &FaultError{Trace: name, Index: i, VA: uint64(va)}
		}

		switch m.tlb.Lookup(va, ps) {
		case tlb.L1Hit:
			// Translation is free.
		case tlb.L2Hit:
			hide := ooo.L2TLBHitHide
			if !dep {
				hide = ooo.IndepWalkHide
			}
			st.now += l2tlbLat * (1 - hide)
			st.bd.TLBHit += l2tlbLat * (1 - hide)
		case tlb.Miss:
			// Claim the earliest-available hardware walker.
			idx := 0
			for j := 1; j < len(m.walkerFree); j++ {
				if m.walkerFree[j] < m.walkerFree[idx] {
					idx = j
				}
			}
			start := st.now
			if m.walkerFree[idx] > start {
				start = m.walkerFree[idx]
			}
			res := m.walk.Walk(va)
			if res.Fault {
				return &FaultError{Trace: name, Index: i, VA: uint64(va), Walk: true}
			}
			lat := float64(res.Latency)
			m.walkerFree[idx] = start + lat
			st.walkCycles += uint64(res.Latency)

			queueWait := start - st.now
			var hide float64
			if dep {
				// Dependent chains expose the walk; hiding improves as the
				// recent miss frequency drops (hide = HideMax at zero
				// frequency, vanishing when every access misses).
				hide = ooo.HideMax / (1 + ooo.HideGap*st.missRate)
			} else {
				// Independent misses overlap well, bounded by walker
				// throughput (queueWait) below; isolated misses vanish
				// almost entirely into the out-of-order window.
				hide = ooo.IndepWalkHide +
					(0.97-ooo.IndepWalkHide)/(1+ooo.HideGap*st.missRate)
			}
			st.now += queueWait + lat*(1-hide)
			st.bd.WalkQueue += queueWait
			st.bd.WalkStall += lat * (1 - hide)
			st.missRate += 1 / rateTau
		}

		// The data reference itself. Stores are charged like loads: a
		// store that misses the L1 issues a read-for-ownership with the
		// same latency exposure, so the store buffer does not make missing
		// stores free.
		lvl, dlat := m.hier.Access(phys, false)
		if lvl != cache.LevelL1 {
			hide := ooo.DataHide
			if !dep {
				hide = ooo.IndepDataHide
			}
			st.now += (float64(dlat) - l1Lat) * (1 - hide)
			st.bd.DataStall += (float64(dlat) - l1Lat) * (1 - hide)
		}
	}
	return nil
}

// Warm is the functional-warmup path of a sampled replay: it advances
// the model state — translator memo, TLB contents, PWCs, cache hierarchy —
// through accesses [lo, hi) with state transitions identical to
// Measure's, but skips all cycle accounting: no clock, no walker-queue
// bookkeeping, no runtime counters. The miss-rate EWMA is still maintained
// (it is model state) so the latency-hiding model enters each measurement
// window with a warm estimate of the recent miss frequency.
//
//mosvet:hotpath
func (m *Machine) Warm(name string, cols *trace.Columns, lo, hi int) error {
	st := &m.run
	for i := lo; i < hi; i++ {
		va := cols.VA(i)
		work := float64(cols.Gap(i)) + 1
		if decay := 1 - work*invRateTau; decay > 0 {
			st.missRate *= decay
		} else {
			st.missRate = 0
		}
		phys, ps, ok := m.trans.Translate(va)
		if !ok {
			return &FaultError{Trace: name, Index: i, VA: uint64(va)}
		}
		if m.tlb.Lookup(va, ps) == tlb.Miss {
			res := m.walk.Walk(va)
			if res.Fault {
				return &FaultError{Trace: name, Index: i, VA: uint64(va), Walk: true}
			}
			st.missRate += 1 / rateTau
		}
		m.hier.Access(phys, false)
	}
	return nil
}

// counters maps run state plus component statistics onto the PMU view.
func counters(st *runState, ss statSnap) pmu.Counters {
	return pmu.Counters{
		R:                uint64(st.now),
		H:                ss.tlb.L2Hits,
		M:                ss.tlb.Misses,
		C:                st.walkCycles,
		Instructions:     st.instructions,
		L1DLoadsProgram:  ss.hier.L1Loads.Program,
		L1DLoadsWalker:   ss.hier.L1Loads.Walker,
		L2LoadsProgram:   ss.hier.L2Loads.Program,
		L2LoadsWalker:    ss.hier.L2Loads.Walker,
		L3LoadsProgram:   ss.hier.L3Loads.Program,
		L3LoadsWalker:    ss.hier.L3Loads.Walker,
		DRAMLoadsProgram: ss.hier.DRAMLoads.Program,
		DRAMLoadsWalker:  ss.hier.DRAMLoads.Walker,
		TLBLookups:       ss.tlb.Lookups,
	}
}
