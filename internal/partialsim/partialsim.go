// Package partialsim is the partial simulator of the paper's Figure 1: it
// models only the virtual-memory subsystem — TLBs, page-walk caches, and
// the cache hierarchy as seen by the walker's page-table loads — and
// reports the virtual-memory metrics (H, M, C) without any notion of
// runtime. This is the BadgerTrap-style tool the surveyed studies built
// (§II-B): much faster than a full simulation precisely because it skips
// the timing model, and therefore unable to answer the only question that
// matters (how long does the program run?) without a runtime model.
//
// The intended flow, exactly as in the paper:
//
//	metrics := partialsim.Run(trace, space, hypotheticalDesign)
//	runtime := mosmodel.Predict(metrics.H, metrics.M, metrics.C)
//
// The package shares the TLB/walker/cache components with the full machine
// (internal/cpu), so a partial simulation of platform P reproduces the
// full machine's H and M exactly. The walk-cycle count C depends on how
// warm the caches the walker reads from are: by default only the walker's
// own loads occupy them (the cheapest simulation); with
// SimulateProgramCache the program's data accesses stream through the
// hierarchy too, which reproduces the full machine's C exactly — the
// paper's §II-B trade-off ("simulating the memory hierarchy and page walk
// caches is more complicated than simulating the TLB alone, but is still
// faster and simpler than simulating the entire CPU"), and the property
// §VII-D calls a "perfectly accurate partial simulator".
package partialsim

import (
	"mosaic/internal/arch"
	"mosaic/internal/cache"
	"mosaic/internal/cpu"
	"mosaic/internal/mem"
	"mosaic/internal/pmu"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/walker"
)

// Metrics is the partial simulator's entire output: the virtual-memory
// performance counters of Table 2, *without* R. Runtime is exactly what a
// partial simulation cannot produce (§I).
type Metrics struct {
	// H: translations that missed the L1 TLB but hit the L2 TLB.
	H uint64
	// M: translations that missed both TLB levels.
	M uint64
	// C: cycles spent walking the page table (walk latencies summed; the
	// partial simulator has no wall clock, so unlike the full machine it
	// cannot account for walker concurrency — it reports pure walk work).
	C uint64
	// Lookups is the number of translations simulated.
	Lookups uint64
	// WalkRefs is the number of page-table entry loads issued.
	WalkRefs uint64
}

// Simulator is a reusable partial simulator for one platform over one
// address space.
type Simulator struct {
	plat  arch.Platform
	space *mem.AddressSpace
	// trans memoizes VA→(phys, pagesize) above the page-table radix walk;
	// sound because translation state is immutable during replay.
	trans *mem.Translator
	tlb   *tlb.TLB
	hier  *cache.Hierarchy
	walk  *walker.Walker
	// SimulateProgramCache streams program data accesses through the
	// cache hierarchy so the walker's loads see realistically warm/polluted
	// caches, making C match the full machine exactly (at ~2× cost).
	SimulateProgramCache bool
	// metrics is the in-flight replay's accumulator.
	metrics Metrics
}

// New builds a partial simulator. Only the virtual-memory-relevant parts
// of the platform are used: TLB geometry, PWC sizes, and the cache
// hierarchy the walker's loads traverse.
func New(plat arch.Platform, space *mem.AddressSpace) (*Simulator, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(plat)
	if err != nil {
		return nil, err
	}
	trans := mem.NewTranslator(space.PageTable())
	return &Simulator{
		plat:  plat,
		space: space,
		trans: trans,
		tlb:   tlb.New(plat.TLB),
		hier:  hier,
		walk:  walker.New(trans, hier, plat.PWC),
	}, nil
}

// Platform returns the simulator's platform definition.
func (s *Simulator) Platform() arch.Platform { return s.plat }

// Reset re-targets the simulator at a platform and address space, restoring
// just-built state (including SimulateProgramCache = false) so a Reset
// simulator replays bit-identically to a fresh one. When the platform is
// unchanged the TLB, cache, and walker allocations are retained and merely
// cleared, enabling engine pooling across a sweep's replays.
func (s *Simulator) Reset(plat arch.Platform, space *mem.AddressSpace) error {
	if plat != s.plat {
		rebuilt, err := New(plat, space)
		if err != nil {
			return err
		}
		*s = *rebuilt
		return nil
	}
	s.space = space
	s.trans.Reset(space.PageTable())
	s.tlb.Reset()
	s.hier.Reset()
	s.walk.Reset(s.trans)
	s.SimulateProgramCache = false
	s.Begin(false)
	return nil
}

// Run replays the trace through the virtual-memory subsystem and returns
// the metrics. It errors if an access touches unmapped memory.
func (s *Simulator) Run(tr *trace.Trace) (Metrics, error) {
	s.Begin(false)
	cols := tr.Columns()
	if err := s.Measure(tr.Name, cols, 0, cols.Len()); err != nil {
		return Metrics{}, err
	}
	return s.metrics, nil
}

// Begin starts a replay from the simulator's current component state with
// zeroed metrics. The partial simulator's metrics accumulate only inside
// measurement windows, so it needs no separate sampled accounting.
func (s *Simulator) Begin(bool) { s.metrics = Metrics{} }

// OpenWindow is a no-op: see Begin.
func (s *Simulator) OpenWindow() {}

// CloseWindow is a no-op: see Begin.
func (s *Simulator) CloseWindow() {}

// Harvest returns the replay's metrics so far in the PMU view (no R) plus
// the page-table entry loads issued.
func (s *Simulator) Harvest() (pmu.Counters, uint64) { return s.metrics.counters() }

func (m Metrics) counters() (pmu.Counters, uint64) {
	return pmu.Counters{H: m.H, M: m.M, C: m.C, TLBLookups: m.Lookups}, m.WalkRefs
}

// Measure replays accesses [lo, hi), accumulating metrics.
//
//mosvet:hotpath
func (s *Simulator) Measure(name string, cols *trace.Columns, lo, hi int) error {
	m := &s.metrics
	for i := lo; i < hi; i++ {
		va := cols.VA(i)
		phys, ps, ok := s.trans.Translate(va)
		if !ok {
			return &cpu.FaultError{Trace: name, Index: i, VA: uint64(va)}
		}
		m.Lookups++
		switch s.tlb.Lookup(va, ps) {
		case tlb.L1Hit:
		case tlb.L2Hit:
			m.H++
		case tlb.Miss:
			m.M++
			res := s.walk.Walk(va)
			if res.Fault {
				return &cpu.FaultError{Trace: name, Index: i, VA: uint64(va), Walk: true}
			}
			m.C += uint64(res.Latency)
			m.WalkRefs += uint64(res.Refs)
		}
		if s.SimulateProgramCache {
			// Same order as the full machine: the data reference follows
			// the translation, so the walker sees identical cache states.
			s.hier.Access(phys, false)
		}
	}
	return nil
}

// Warm is the functional-warmup path of a sampled replay: state
// transitions — TLB contents, PWCs, and (under SimulateProgramCache) the
// cache hierarchy — are identical to Measure's, but none of the metrics
// accumulate, so warmup accesses are invisible in the windowed counts.
//
//mosvet:hotpath
func (s *Simulator) Warm(name string, cols *trace.Columns, lo, hi int) error {
	for i := lo; i < hi; i++ {
		va := cols.VA(i)
		phys, ps, ok := s.trans.Translate(va)
		if !ok {
			return &cpu.FaultError{Trace: name, Index: i, VA: uint64(va)}
		}
		if s.tlb.Lookup(va, ps) == tlb.Miss {
			res := s.walk.Walk(va)
			if res.Fault {
				return &cpu.FaultError{Trace: name, Index: i, VA: uint64(va), Walk: true}
			}
		}
		if s.SimulateProgramCache {
			s.hier.Access(phys, false)
		}
	}
	return nil
}

// Run is the one-shot convenience: build a simulator and replay the trace.
func Run(plat arch.Platform, space *mem.AddressSpace, tr *trace.Trace) (Metrics, error) {
	s, err := New(plat, space)
	if err != nil {
		return Metrics{}, err
	}
	return s.Run(tr)
}
