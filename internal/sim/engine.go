// Package sim is the simulation-engine layer: it decomposes a replay into
// explicit stages — build the address space, acquire an engine, run the
// trace — and unifies the full timing machine (internal/cpu) and the
// partial simulator (internal/partialsim) behind one Engine interface with
// Reset(platform) + Run(trace) semantics.
//
// The layer exists for throughput. The paper's value proposition is that
// partial simulation plus a model is *fast* (§II-B), yet a naive
// measurement pipeline rebuilds the whole simulated world — process,
// Mosalloc pools, TLB/cache/walker arrays — for every one of the ~3,100
// replays in the 3-platform × 19-workload × 54-layout sweep. sim provides
// the three reusable pieces that remove that overhead:
//
//   - Engine / Pool: machines are Reset and reused instead of reallocated,
//     with the guarantee (tested) that a Reset engine replays
//     bit-identically to a fresh one;
//   - SpaceCache: the (workload, layout) address space is built once and
//     shared read-only across every platform replay that uses the same
//     layout configuration — translation state is immutable during replay;
//   - Scheduler: every (workload, platform, layout) job of a sweep flattens
//     into one bounded worker pool with per-stage timing counters and
//     progress/ETA reporting.
package sim

import (
	"mosaic/internal/arch"
	"mosaic/internal/cpu"
	"mosaic/internal/mem"
	"mosaic/internal/partialsim"
	"mosaic/internal/pmu"
	"mosaic/internal/trace"
)

// Result is the unified output of one replay. The full machine populates
// every counter; the partial simulator populates only the virtual-memory
// subset (H, M, C, TLBLookups) plus WalkRefs, leaving R zero — runtime is
// exactly what a partial simulation cannot produce (§I).
type Result struct {
	Counters pmu.Counters
	// WalkRefs is the number of page-table entry loads issued (reported by
	// the partial simulator; the full machine folds them into the walker
	// cache counters).
	WalkRefs uint64
	// MeasuredAccesses and TotalAccesses record the sampled-replay coverage
	// behind the counters: MeasuredAccesses were replayed at full fidelity,
	// and the counters are extrapolated whole-trace estimates whenever
	// MeasuredAccesses < TotalAccesses. Exact replay (sampling disabled)
	// leaves both zero, so existing exact results compare bit-identically.
	MeasuredAccesses uint64
	TotalAccesses    uint64
	// Phases attributes the counters to the trace's regimes, in trace
	// order, when the replayed trace carried phase markers (see phases.go).
	// Nil for single-regime traces.
	Phases []PhaseResult
}

// Equal reports bit-exact equality of two results, including phase
// attribution. (The Phases slice makes Result non-comparable with ==; the
// golden bit-identity tests compare through this instead.)
func (r Result) Equal(o Result) bool {
	if r.Counters != o.Counters || r.WalkRefs != o.WalkRefs ||
		r.MeasuredAccesses != o.MeasuredAccesses || r.TotalAccesses != o.TotalAccesses ||
		len(r.Phases) != len(o.Phases) {
		return false
	}
	for i := range r.Phases {
		if r.Phases[i] != o.Phases[i] {
			return false
		}
	}
	return true
}

// Engine is one reusable simulator: the full timing machine or the partial
// simulator, re-targetable at a platform and address space between runs.
// The interface is sealed — *Full and *Partial are its only
// implementations, which is what lets every replay path drive them through
// one loop.
type Engine interface {
	// Platform returns the platform the engine currently models.
	Platform() arch.Platform
	// Reset re-targets the engine, restoring just-built state; a Reset
	// engine must replay bit-identically to a freshly constructed one.
	Reset(plat arch.Platform, space *mem.AddressSpace) error
	// Run replays a trace and returns the engine's counters.
	Run(tr *trace.Trace) (Result, error)
	// RunSampled replays a trace under a sampling config, extrapolating the
	// windowed counters to whole-trace estimates. A disabled config is
	// bit-identical to Run.
	RunSampled(tr *trace.Trace, s Sampling) (Result, error)
	// kernel returns the replay kernel the driver advances, synced to the
	// engine's settings.
	kernel() kernel
}

// Full wraps the full timing machine (internal/cpu) as an Engine.
type Full struct {
	m *cpu.Machine
}

// NewFull builds a full-machine engine.
func NewFull(plat arch.Platform, space *mem.AddressSpace) (*Full, error) {
	m, err := cpu.New(plat, space)
	if err != nil {
		return nil, err
	}
	return &Full{m: m}, nil
}

// Machine exposes the wrapped timing machine (for ablation knobs and tests).
func (f *Full) Machine() *cpu.Machine { return f.m }

// Platform implements Engine.
func (f *Full) Platform() arch.Platform { return f.m.Platform() }

// Reset implements Engine.
func (f *Full) Reset(plat arch.Platform, space *mem.AddressSpace) error {
	return f.m.Reset(plat, space)
}

// Run implements Engine.
func (f *Full) Run(tr *trace.Trace) (Result, error) { return run(f.kernel(), tr, Sampling{}) }

// RunSampled implements Engine.
func (f *Full) RunSampled(tr *trace.Trace, s Sampling) (Result, error) { return run(f.kernel(), tr, s) }

func (f *Full) kernel() kernel { return f.m }

// Partial wraps the partial simulator (internal/partialsim) as an Engine.
type Partial struct {
	s *partialsim.Simulator
	// HighFidelity streams program data accesses through the cache model so
	// the walk-cycle count C matches the full machine exactly — the paper's
	// §VII-D "perfectly accurate partial simulator".
	HighFidelity bool
}

// NewPartial builds a partial-simulator engine.
func NewPartial(plat arch.Platform, space *mem.AddressSpace) (*Partial, error) {
	s, err := partialsim.New(plat, space)
	if err != nil {
		return nil, err
	}
	return &Partial{s: s}, nil
}

// Simulator exposes the wrapped partial simulator (for tests).
func (p *Partial) Simulator() *partialsim.Simulator { return p.s }

// Platform implements Engine.
func (p *Partial) Platform() arch.Platform { return p.s.Platform() }

// Reset implements Engine. HighFidelity is cleared, matching a fresh
// simulator; callers set it again before Run as needed.
func (p *Partial) Reset(plat arch.Platform, space *mem.AddressSpace) error {
	p.HighFidelity = false
	return p.s.Reset(plat, space)
}

// Run implements Engine.
func (p *Partial) Run(tr *trace.Trace) (Result, error) { return run(p.kernel(), tr, Sampling{}) }

// RunSampled implements Engine.
func (p *Partial) RunSampled(tr *trace.Trace, s Sampling) (Result, error) {
	return run(p.kernel(), tr, s)
}

// kernel is the one place HighFidelity reaches the simulator.
func (p *Partial) kernel() kernel {
	p.s.SimulateProgramCache = p.HighFidelity
	return p.s
}
