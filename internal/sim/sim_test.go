package sim

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"mosaic/internal/arch"
	"mosaic/internal/mem"
	"mosaic/internal/mosalloc"
	"mosaic/internal/trace"
)

const (
	testRegion  = mem.Addr(0x2000_0000_0000)
	testPhysMem = 1 << 36
)

// buildTestSpace maps size bytes at testRegion with the given page size,
// bypassing Mosalloc — engines do not care how a space was built.
func buildTestSpace(t *testing.T, size uint64, ps mem.PageSize) *mem.AddressSpace {
	t.Helper()
	as, err := mem.NewAddressSpace(1 << 38)
	if err != nil {
		t.Fatal(err)
	}
	size = uint64(mem.AlignUp(mem.Addr(size), ps))
	if err := as.Map(mem.NewRegion(testRegion, size), ps); err != nil {
		t.Fatal(err)
	}
	return as
}

// testTrace touches random 4KB pages in the mapped window with dependent
// loads, enough to dirty the TLB, caches, and PWCs.
func testTrace(seed int64, size uint64, accesses int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder("sim-test", accesses)
	for i := 0; i < accesses; i++ {
		b.Compute(10)
		b.LoadDep(testRegion + mem.Addr(rng.Uint64()%size))
	}
	return b.Trace()
}

// TestFullResetReplaysIdentically is the pool's core guarantee: an engine
// that already ran a trace, was Put back, and came out of the pool again
// must produce bit-identical counters to a freshly constructed machine.
func TestFullResetReplaysIdentically(t *testing.T) {
	size := uint64(64 << 20)
	space := buildTestSpace(t, size, mem.Page4K)
	tr := testTrace(1, size, 20000)

	fresh, err := NewFull(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if want.Counters.M == 0 || want.Counters.C == 0 {
		t.Fatal("test trace should miss the TLB and spend walk cycles")
	}

	var pool Pool
	dirty, err := pool.Full(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dirty.Run(tr); err != nil {
		t.Fatal(err)
	}
	pool.Put(dirty)

	reused, err := pool.Full(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	if reused != dirty {
		t.Fatal("pool should have recycled the idle engine")
	}
	got, err := reused.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("reset engine diverged from fresh engine:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestPartialResetReplaysIdentically mirrors the full-machine guarantee for
// the partial simulator, in both fidelity modes.
func TestPartialResetReplaysIdentically(t *testing.T) {
	size := uint64(64 << 20)
	space := buildTestSpace(t, size, mem.Page4K)
	tr := testTrace(2, size, 20000)

	for _, hf := range []bool{false, true} {
		fresh, err := NewPartial(arch.Broadwell, space)
		if err != nil {
			t.Fatal(err)
		}
		fresh.HighFidelity = hf
		want, err := fresh.Run(tr)
		if err != nil {
			t.Fatal(err)
		}

		var pool Pool
		dirty, err := pool.Partial(arch.Broadwell, space)
		if err != nil {
			t.Fatal(err)
		}
		dirty.HighFidelity = hf
		if _, err := dirty.Run(tr); err != nil {
			t.Fatal(err)
		}
		pool.Put(dirty)

		reused, err := pool.Partial(arch.Broadwell, space)
		if err != nil {
			t.Fatal(err)
		}
		if reused != dirty {
			t.Fatal("pool should have recycled the idle engine")
		}
		if reused.HighFidelity {
			t.Fatal("Reset must clear HighFidelity, matching a fresh simulator")
		}
		reused.HighFidelity = hf
		got, err := reused.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("highFidelity=%v: reset simulator diverged:\ngot  %+v\nwant %+v",
				hf, got, want)
		}
	}
}

// TestResetRetargetsPlatform re-points one engine at a different platform
// and demands the counters of a machine built for that platform from
// scratch.
func TestResetRetargetsPlatform(t *testing.T) {
	size := uint64(64 << 20)
	space := buildTestSpace(t, size, mem.Page4K)
	tr := testTrace(3, size, 20000)

	fresh, err := NewFull(arch.Haswell, space)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewFull(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(tr); err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset(arch.Haswell, space); err != nil {
		t.Fatal(err)
	}
	if eng.Platform() != arch.Haswell {
		t.Fatalf("platform after Reset = %s, want Haswell", eng.Platform().Name)
	}
	got, err := eng.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("retargeted engine diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

func testMosallocConfig(heap uint64) mosalloc.Config {
	return mosalloc.Config{
		HeapPool:      mosalloc.Uniform(mem.Page4K, heap),
		AnonPool:      mosalloc.Uniform(mem.Page4K, 8<<20),
		FilePoolBytes: 1 << 20,
	}
}

func TestSpaceCacheSharesAndReleases(t *testing.T) {
	cfg := testMosallocConfig(32 << 20)
	c := NewSpaceCache(testPhysMem)

	k1 := c.Register(cfg)
	k2 := c.Register(cfg)
	if k1 != k2 {
		t.Fatalf("identical configs got distinct keys %q and %q", k1, k2)
	}
	if c.Live() != 1 {
		t.Fatalf("live entries = %d, want 1", c.Live())
	}

	a, err := c.Get(k1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get(k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("registered Gets should share one built space")
	}

	other := c.Register(testMosallocConfig(64 << 20))
	if other == k1 {
		t.Fatal("different configs must not collide")
	}
	if c.Live() != 2 {
		t.Fatalf("live entries = %d, want 2", c.Live())
	}

	c.Release(k1)
	if c.Live() != 2 {
		t.Fatal("entry released too early: one planned use remains")
	}
	c.Release(k2)
	if c.Live() != 1 {
		t.Fatalf("live entries = %d, want 1 after final release", c.Live())
	}

	// An unregistered key still yields a usable (private) space.
	p, err := c.Get("no-such-key", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p == a {
		t.Fatal("unregistered Get must build privately, not alias the cache")
	}
}

func TestSchedulerRunsAllJobs(t *testing.T) {
	const n = 23
	ran := make([]bool, n)
	var reports []Progress
	s := Scheduler{
		Workers:    4,
		Stage:      "replay",
		OnProgress: func(p Progress) { reports = append(reports, p) },
	}
	err := s.Run(n, func(i int) string { return "job" }, func(i int) error {
		ran[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("job %d never ran", i)
		}
	}
	if len(reports) != n {
		t.Fatalf("%d progress reports, want %d", len(reports), n)
	}
	last := reports[len(reports)-1]
	if last.Done != n || last.Total != n || last.Workers != 4 || last.Stage != "replay" {
		t.Fatalf("final report %+v", last)
	}
}

// TestSchedulerDrainsOnError: a failed job must not abort the rest of the
// sweep, and the lowest-indexed error wins.
func TestSchedulerDrainsOnError(t *testing.T) {
	const n = 16
	errLow := errors.New("low")
	errHigh := errors.New("high")
	ran := make([]bool, n)
	s := Scheduler{Workers: 3}
	err := s.Run(n, nil, func(i int) error {
		ran[i] = true
		switch i {
		case 5:
			return errLow
		case 11:
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want lowest-indexed %v", err, errLow)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("job %d skipped after earlier failure", i)
		}
	}
}

func TestTimingSnapshot(t *testing.T) {
	var tm Timing
	tm.Observe(StageReplay, 2*time.Second)
	tm.Observe(StageReplay, time.Second)
	tm.Observe(StageSpace, time.Millisecond)
	if err := tm.Time(StagePrepare, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	snap := tm.Snapshot()
	if len(snap) != int(numStages) {
		t.Fatalf("%d stages in snapshot", len(snap))
	}
	byStage := make(map[Stage]StageTime)
	for _, st := range snap {
		byStage[st.Stage] = st
	}
	if st := byStage[StageReplay]; st.Count != 2 || st.Total != 3*time.Second {
		t.Fatalf("replay stage %+v", st)
	}
	if st := byStage[StageSpace]; st.Count != 1 {
		t.Fatalf("space stage %+v", st)
	}
	if st := byStage[StagePrepare]; st.Count != 1 {
		t.Fatalf("prepare stage %+v", st)
	}
	if StageReplay.String() != "replay" || StagePrepare.String() != "prepare" {
		t.Fatal("stage names")
	}
}

// TestMixedBatchFallsBack: the two engine kinds replaying the same trace
// each report their own counters — the full machine reports runtime, the
// partial simulator reports none but still counts TLB misses.
func TestMixedBatchFallsBack(t *testing.T) {
	size := uint64(32 << 20)
	space := buildTestSpace(t, size, mem.Page4K)
	tr := testTrace(6, size, 10000)

	full, err := NewFull(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartial(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := full.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := part.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Counters.R == 0 {
		t.Error("full engine should report runtime")
	}
	if pr.Counters.R != 0 || pr.Counters.M == 0 {
		t.Errorf("partial engine result %+v", pr)
	}
}
