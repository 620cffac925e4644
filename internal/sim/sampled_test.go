package sim

import (
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/mem"
	"mosaic/internal/trace"
)

// sampledTestEngines builds one engine per test space in the requested
// configuration: kind "full", "partial", or "partial-hifi".
func sampledTestEngines(t *testing.T, kind string, spaces []*mem.AddressSpace) []Engine {
	t.Helper()
	engines := make([]Engine, len(spaces))
	for i, space := range spaces {
		switch kind {
		case "full":
			eng, err := NewFull(arch.Broadwell, space)
			if err != nil {
				t.Fatal(err)
			}
			engines[i] = eng
		default:
			eng, err := NewPartial(arch.Broadwell, space)
			if err != nil {
				t.Fatal(err)
			}
			eng.HighFidelity = kind == "partial-hifi"
			engines[i] = eng
		}
	}
	return engines
}

// layoutTestSpaces builds one space per layout of a small "protocol": the
// same window backed by 4KB, 2MB, and 1GB pages.
func layoutTestSpaces(t *testing.T, size uint64) []*mem.AddressSpace {
	t.Helper()
	return []*mem.AddressSpace{
		buildTestSpace(t, size, mem.Page4K),
		buildTestSpace(t, size, mem.Page2M),
		buildTestSpace(t, size, mem.Page1G),
		buildTestSpace(t, size, mem.Page4K),
	}
}

// exactEqual compares the replay payload of two results — counters and walk
// refs — ignoring the sampled-coverage bookkeeping fields.
func exactEqual(a, b Result) bool {
	return a.Counters == b.Counters && a.WalkRefs == b.WalkRefs
}

// TestSampledDisabledIsExact: RunSampled with the zero config must be
// bit-identical to Run — including the zero bookkeeping fields — for both
// engine kinds and both partial-fidelity modes.
func TestSampledDisabledIsExact(t *testing.T) {
	size := uint64(64 << 20)
	spaces := layoutTestSpaces(t, size)
	tr := testTrace(11, size, 30000)

	for _, kind := range []string{"full", "partial", "partial-hifi"} {
		want := make([]Result, len(spaces))
		for i, e := range sampledTestEngines(t, kind, spaces) {
			var err error
			if want[i], err = e.Run(tr); err != nil {
				t.Fatal(err)
			}
		}

		for i, e := range sampledTestEngines(t, kind, spaces) {
			got, err := e.RunSampled(tr, Sampling{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want[i]) {
				t.Errorf("%s engine %d: RunSampled(off) %+v, Run %+v", kind, i, got, want[i])
			}
		}
	}
}

// TestSampledFullCoverageIsExact: a sampling config whose windows cover the
// whole trace (MeasureLen ≥ Period) must replay bit-identically to exact
// mode — warmups are clipped away and the merged window spans the trace —
// while still recording full coverage in the bookkeeping fields.
func TestSampledFullCoverageIsExact(t *testing.T) {
	size := uint64(64 << 20)
	spaces := layoutTestSpaces(t, size)
	tr := testTrace(12, size, 30000)
	cover := Sampling{Period: 1024, MeasureLen: 1024, WarmupLen: 256}

	for _, kind := range []string{"full", "partial", "partial-hifi"} {
		want := make([]Result, len(spaces))
		for i, e := range sampledTestEngines(t, kind, spaces) {
			var err error
			if want[i], err = e.Run(tr); err != nil {
				t.Fatal(err)
			}
		}
		if want[0].Counters.M == 0 {
			t.Fatal("test trace should miss the TLB, or the test proves nothing")
		}

		for i, e := range sampledTestEngines(t, kind, spaces) {
			got, err := e.RunSampled(tr, cover)
			if err != nil {
				t.Fatal(err)
			}
			if !exactEqual(got, want[i]) {
				t.Errorf("%s engine %d: sampled %+v, exact %+v", kind, i, got, want[i])
			}
			if got.MeasuredAccesses != uint64(tr.Len()) || got.TotalAccesses != uint64(tr.Len()) {
				t.Errorf("%s engine %d: coverage %d/%d, want %d/%d", kind, i,
					got.MeasuredAccesses, got.TotalAccesses, tr.Len(), tr.Len())
			}
		}
	}
}

// TestSampledExtrapolationTracksExact is the estimator sanity check on the
// synthetic trace: extrapolated headline counters land near the exact ones.
// (The tight ≤1% bound on the bundled workloads is asserted by the
// top-level TestSampledReplayAccuracy; the synthetic random trace here has
// higher variance, so the tolerance is loose.)
func TestSampledExtrapolationTracksExact(t *testing.T) {
	size := uint64(64 << 20)
	space := buildTestSpace(t, size, mem.Page4K)
	tr := testTrace(14, size, 200000)
	s := Sampling{Period: 4096, MeasureLen: 1024, WarmupLen: 3072}

	fresh, err := NewFull(arch.Broadwell, space)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := fresh.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewFull(arch.Broadwell, space)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := eng.RunSampled(tr, s)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name           string
		exact, sampled uint64
	}{
		{"R", exact.Counters.R, sampled.Counters.R},
		{"M", exact.Counters.M, sampled.Counters.M},
		{"C", exact.Counters.C, sampled.Counters.C},
		{"Instructions", exact.Counters.Instructions, sampled.Counters.Instructions},
		{"TLBLookups", exact.Counters.TLBLookups, sampled.Counters.TLBLookups},
	} {
		if c.exact == 0 {
			t.Fatalf("exact %s is zero", c.name)
		}
		rel := (float64(c.sampled) - float64(c.exact)) / float64(c.exact)
		if rel < 0 {
			rel = -rel
		}
		tol := 0.10
		if c.name == "C" {
			// Walk latency depends on PWC/cache warmth, the state slowest to
			// converge under functional warmup; a uniform-random pointer
			// chase is its worst case.
			tol = 0.15
		}
		if rel > tol {
			t.Errorf("%s: sampled %d vs exact %d (%.1f%% off)", c.name, c.sampled, c.exact, 100*rel)
		}
	}
	if sampled.MeasuredAccesses == 0 || sampled.TotalAccesses != uint64(tr.Len()) {
		t.Errorf("coverage %d/%d", sampled.MeasuredAccesses, sampled.TotalAccesses)
	}
}

// TestPoolCapsIdleEngines: Put must retain at most maxIdle engines per
// (kind, platform) bucket and drop the excess.
func TestPoolCapsIdleEngines(t *testing.T) {
	space := buildTestSpace(t, 1<<20, mem.Page4K)
	var p Pool
	for i := 0; i < maxIdle+5; i++ {
		eng, err := NewFull(arch.SandyBridge, space)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(eng)
	}
	if got := p.Idle(); got != maxIdle {
		t.Errorf("cap retained %d idle engines, want %d", got, maxIdle)
	}
	// Other buckets have their own budget.
	part, err := NewPartial(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(part)
	if got := p.Idle(); got != maxIdle+1 {
		t.Errorf("after partial Put: %d idle engines, want %d", got, maxIdle+1)
	}
}

// TestSampledTraceLenPlumbing pins the window schedule over a trace's own
// length: every window lies inside the trace and Measured counts them.
func TestSampledTraceLenPlumbing(t *testing.T) {
	tr := testTrace(15, 1<<20, 5000)
	plan := trace.SamplePlan{Period: 1000, MeasureLen: 100, WarmupLen: 50}
	ws := plan.Windows(tr.Len())
	if len(ws) == 0 || ws[len(ws)-1].Hi > tr.Len() {
		t.Fatalf("windows %v out of range for %d accesses", ws, tr.Len())
	}
	if got, want := plan.Measured(tr.Len()), 5*100; got != want {
		t.Errorf("Measured = %d, want %d", got, want)
	}
}
