package sim

import (
	"math/rand"
	"runtime"
	"testing"

	"mosaic/internal/mem"
	"mosaic/internal/trace"
)

// phasedSimTrace builds a three-regime trace over the test region: a
// sequential store-heavy build, a random pointer-chasing probe, and a
// strided scan — the dbindex shape, compact enough for engine tests.
func phasedSimTrace(seed int64, size uint64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder("sim-phased", n)
	b.BeginPhase("build")
	for b.Len() < n/3 {
		b.Compute(4)
		b.Store(testRegion + mem.Addr(b.Len()*64)%mem.Addr(size))
	}
	b.BeginPhase("probe")
	for b.Len() < 2*n/3 {
		b.Compute(2)
		b.LoadDep(testRegion + mem.Addr(rng.Uint64()%size))
	}
	b.BeginPhase("scan")
	stride := 0
	for b.Len() < n {
		b.Compute(1)
		b.Load(testRegion + mem.Addr(stride)%mem.Addr(size))
		stride += 4096
	}
	return b.Trace()
}

// stripPhases clones a phased trace's columns into a phase-less trace with
// identical accesses.
func stripPhases(t *testing.T, tr *trace.Trace) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder(tr.Name, tr.Len())
	for _, a := range tr.Columns().Rows() {
		b.Compute(uint64(a.Gap))
		switch {
		case a.Write && a.Dep:
			b.StoreDep(a.VA)
		case a.Write:
			b.Store(a.VA)
		case a.Dep:
			b.LoadDep(a.VA)
		default:
			b.Load(a.VA)
		}
	}
	return b.Trace()
}

// sumPhases telescopes a result's phase attributions over the full
// extrapolated counter set.
func sumPhases(r Result) (c Result, measured, total uint64) {
	for _, ph := range r.Phases {
		addCounters(&c, Result{Counters: ph.Counters, WalkRefs: ph.WalkRefs})
		measured += ph.MeasuredAccesses
		total += ph.TotalAccesses
	}
	return c, measured, total
}

// TestPhasedExactMatchesPhaseBlind: an exact replay of a phased trace must
// produce headline counters bit-identical to the same accesses replayed
// phase-less — attribution is free — and the phase rows must partition the
// headline exactly.
func TestPhasedExactMatchesPhaseBlind(t *testing.T) {
	size := uint64(64 << 20)
	tr := phasedSimTrace(31, size, 150000)
	plain := stripPhases(t, tr)

	for _, kind := range []string{"full", "partial", "partial-hifi"} {
		space := buildTestSpace(t, size, mem.Page4K)
		want, err := sampledTestEngines(t, kind, []*mem.AddressSpace{space})[0].Run(plain)
		if err != nil {
			t.Fatal(err)
		}
		if want.Counters.M == 0 {
			t.Fatalf("%s: test trace should miss the TLB", kind)
		}
		got, err := sampledTestEngines(t, kind, []*mem.AddressSpace{space})[0].Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters != want.Counters || got.WalkRefs != want.WalkRefs {
			t.Errorf("%s: phased exact %+v, phase-blind %+v", kind, got.Counters, want.Counters)
		}
		if len(got.Phases) != 3 {
			t.Fatalf("%s: phases = %+v, want 3 rows", kind, got.Phases)
		}
		sum, measured, total := sumPhases(got)
		if sum.Counters != got.Counters || sum.WalkRefs != got.WalkRefs {
			t.Errorf("%s: phase rows sum to %+v, headline %+v", kind, sum.Counters, got.Counters)
		}
		if measured != uint64(tr.Len()) || total != uint64(tr.Len()) {
			t.Errorf("%s: exact phases cover %d/%d, want full %d", kind, measured, total, tr.Len())
		}
		// Regimes must be distinguishable in the attribution: the probe
		// phase (random dependent loads) misses the TLB far more than the
		// sequential build phase.
		var rows [3]PhaseResult
		copy(rows[:], got.Phases)
		if rows[1].Counters.M <= rows[0].Counters.M {
			t.Errorf("%s: probe phase M=%d not above build phase M=%d",
				kind, rows[1].Counters.M, rows[0].Counters.M)
		}
	}
}

// TestPhasedFullCoverageSampledIsExact: a sampling plan with full coverage
// must reproduce the exact phased result bit-identically, per phase.
func TestPhasedFullCoverageSampledIsExact(t *testing.T) {
	size := uint64(64 << 20)
	tr := phasedSimTrace(32, size, 120000)
	full := Sampling{Period: 4096, MeasureLen: 4096, PrologueLen: 8192}

	for _, kind := range []string{"full", "partial", "partial-hifi"} {
		space := buildTestSpace(t, size, mem.Page4K)
		exact, err := sampledTestEngines(t, kind, []*mem.AddressSpace{space})[0].Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sampledTestEngines(t, kind, []*mem.AddressSpace{space})[0].RunSampled(tr, full)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters != exact.Counters || got.WalkRefs != exact.WalkRefs {
			t.Errorf("%s: full-coverage sampled %+v, exact %+v", kind, got.Counters, exact.Counters)
		}
		if got.MeasuredAccesses != uint64(tr.Len()) || got.TotalAccesses != uint64(tr.Len()) {
			t.Errorf("%s: coverage %d/%d, want full", kind, got.MeasuredAccesses, got.TotalAccesses)
		}
		for i, ph := range got.Phases {
			if ph.Counters != exact.Phases[i].Counters {
				t.Errorf("%s phase %q: full-coverage %+v, exact %+v",
					kind, ph.Name, ph.Counters, exact.Phases[i].Counters)
			}
		}
	}
}

// TestPhasedSampledEstimatesPerPhase: under real (partial-coverage)
// sampling, for every engine kind and layout, the phase rows must partition
// the headline result and its coverage, and each phase's estimate must stay
// within a loose envelope of that phase's exact counters — the sim-layer
// smoke check behind the root accuracy contract.
func TestPhasedSampledEstimatesPerPhase(t *testing.T) {
	// A phase with a handful of misses (huge pages) extrapolates them with
	// a large relative error; the envelope bounds only counts this large.
	const minResolvable = 1000
	size := uint64(64 << 20)
	tr := phasedSimTrace(34, size, 600000)
	s := Sampling{Period: 16384, MeasureLen: 1536, WarmupLen: 4096, PrologueLen: 8192}

	for _, kind := range []string{"full", "partial", "partial-hifi"} {
		for li, space := range layoutTestSpaces(t, size) {
			exact, err := sampledTestEngines(t, kind, []*mem.AddressSpace{space})[0].Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sampledTestEngines(t, kind, []*mem.AddressSpace{space})[0].RunSampled(tr, s)
			if err != nil {
				t.Fatal(err)
			}
			if got.MeasuredAccesses == 0 || got.MeasuredAccesses >= got.TotalAccesses {
				t.Fatalf("%s layout %d: sampling did not engage: %d/%d",
					kind, li, got.MeasuredAccesses, got.TotalAccesses)
			}
			if len(got.Phases) != 3 {
				t.Fatalf("%s layout %d: %d phase rows, want 3", kind, li, len(got.Phases))
			}
			sum, measured, total := sumPhases(got)
			if sum.Counters != got.Counters || sum.WalkRefs != got.WalkRefs {
				t.Errorf("%s layout %d: phase rows sum to %+v, headline %+v",
					kind, li, sum.Counters, got.Counters)
			}
			if measured != got.MeasuredAccesses || total != got.TotalAccesses {
				t.Errorf("%s layout %d: phase coverage %d/%d, headline %d/%d",
					kind, li, measured, total, got.MeasuredAccesses, got.TotalAccesses)
			}
			for i, ph := range got.Phases {
				ex := exact.Phases[i]
				if ph.TotalAccesses == 0 || ph.MeasuredAccesses >= ph.TotalAccesses {
					t.Fatalf("%s layout %d phase %q: sampling did not engage (%d/%d)",
						kind, li, ph.Name, ph.MeasuredAccesses, ph.TotalAccesses)
				}
				for _, c := range []struct {
					name       string
					got, exact uint64
				}{
					{"M", ph.Counters.M, ex.Counters.M},
					{"TLBLookups", ph.Counters.TLBLookups, ex.Counters.TLBLookups},
					{"Instructions", ph.Counters.Instructions, ex.Counters.Instructions},
				} {
					if c.exact < minResolvable {
						continue
					}
					rel := float64(c.got) - float64(c.exact)
					if rel < 0 {
						rel = -rel
					}
					if rel/float64(c.exact) > 0.15 {
						t.Errorf("%s layout %d phase %q %s: sampled %d vs exact %d (>15%% off)",
							kind, li, ph.Name, c.name, c.got, c.exact)
					}
				}
			}
		}
	}
}

// TestPhasedSavesCountersOnly: phase attribution reads only counters at its
// save positions, so a phased replay must cost about the same allocation as
// the same accesses replayed phase-less — no copy of TLB, cache-tag, or PWC
// state per save position.
func TestPhasedSavesCountersOnly(t *testing.T) {
	const budget = 64 << 10
	size := uint64(64 << 20)
	plain, _ := faultTrace(size, 300000, -1, false)
	phased, _ := faultTrace(size, 300000, -1, true)
	space := buildTestSpace(t, size, mem.Page4K)

	for _, kind := range []string{"full", "partial"} {
		alloc := func(tr *trace.Trace) uint64 {
			eng := sampledTestEngines(t, kind, []*mem.AddressSpace{space})[0]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := eng.Run(tr)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(tr.Phases()); len(res.Phases) != want {
				t.Fatalf("%s: %d phase rows, want %d", kind, len(res.Phases), want)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		base, got := alloc(plain), alloc(phased)
		if got > base+budget {
			t.Errorf("%s: phased replay allocated %d bytes, phase-blind %d: %d over, budget %d",
				kind, got, base, got-base, budget)
		}
	}
}
