package sim

import (
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/mem"
)

// batchTestSpaces builds one space per layout of a small "protocol": the
// same window backed by 4KB, 2MB, and 1GB pages — exactly the shape the
// fused replay stage batches.
func batchTestSpaces(t *testing.T, size uint64) []*mem.AddressSpace {
	t.Helper()
	return []*mem.AddressSpace{
		buildTestSpace(t, size, mem.Page4K),
		buildTestSpace(t, size, mem.Page2M),
		buildTestSpace(t, size, mem.Page1G),
		buildTestSpace(t, size, mem.Page4K),
	}
}

// TestFullBatchMatchesUnfused is the fused kernel's golden test: RunBatch
// over N full machines must produce counters bit-identical to replaying the
// trace through each machine alone.
func TestFullBatchMatchesUnfused(t *testing.T) {
	size := uint64(64 << 20)
	spaces := batchTestSpaces(t, size)
	tr := testTrace(4, size, 30000)

	want := make([]Result, len(spaces))
	for i, space := range spaces {
		eng, err := NewFull(arch.Broadwell, space)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = eng.Run(tr); err != nil {
			t.Fatal(err)
		}
	}
	if want[0].Counters.M == 0 || want[0].Counters.C == 0 {
		t.Fatal("test trace should miss the TLB and spend walk cycles")
	}
	if want[0].Counters == want[1].Counters {
		t.Fatal("layouts should produce distinct counters, or the test proves nothing")
	}

	engines := make([]Engine, len(spaces))
	for i, space := range spaces {
		eng, err := NewFull(arch.Broadwell, space)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	got, err := RunBatch(engines, tr, Sampling{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("engine %d: fused %+v, unfused %+v", i, got[i], want[i])
		}
	}
}

// TestPartialBatchMatchesUnfused covers the partial simulator's fused path
// in both fidelity modes, including a batch mixing the two — each simulator
// must honor its own SimulateProgramCache setting.
func TestPartialBatchMatchesUnfused(t *testing.T) {
	size := uint64(64 << 20)
	spaces := batchTestSpaces(t, size)
	tr := testTrace(5, size, 30000)

	for _, fidelities := range [][]bool{
		{false, false, false, false},
		{true, true, true, true},
		{true, false, true, false},
	} {
		want := make([]Result, len(spaces))
		for i, space := range spaces {
			eng, err := NewPartial(arch.Skylake, space)
			if err != nil {
				t.Fatal(err)
			}
			eng.HighFidelity = fidelities[i]
			if want[i], err = eng.Run(tr); err != nil {
				t.Fatal(err)
			}
		}

		engines := make([]Engine, len(spaces))
		for i, space := range spaces {
			eng, err := NewPartial(arch.Skylake, space)
			if err != nil {
				t.Fatal(err)
			}
			eng.HighFidelity = fidelities[i]
			engines[i] = eng
		}
		got, err := RunBatch(engines, tr, Sampling{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Errorf("fidelities %v, engine %d: fused %+v, unfused %+v",
					fidelities, i, got[i], want[i])
			}
		}
	}
}

// TestMixedBatchFallsBack: a fused batch mixing engine kinds must still
// return every engine's own counters.
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
	got, err := RunBatch([]Engine{full, part}, tr, Sampling{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Counters.R == 0 {
		t.Error("full engine should report runtime")
	}
	if got[1].Counters.R != 0 || got[1].Counters.M == 0 {
		t.Errorf("partial engine result %+v", got[1])
	}
}

// TestBatchSpan: a trace below fuseMinBytes never fuses — one layout per
// job whatever the sweep's shape, phased or not — and a trace at or above
// it fuses enough layouts to keep ~2 jobs per worker, capped at maxBatch.
func TestBatchSpan(t *testing.T) {
	tr := testTrace(7, 1<<20, 1000)
	if tr.Columns().Bytes() >= fuseMinBytes {
		t.Fatalf("fixture has %d bytes of columns, want < %d", tr.Columns().Bytes(), fuseMinBytes)
	}
	phased := phasedSimTrace(8, 1<<20, 3000)
	for _, tc := range []struct{ jobs, workers int }{{60, 1}, {60, 8}, {1000, 4}} {
		if got := BatchSpan(tr, tc.jobs, tc.workers); got != 1 {
			t.Errorf("unfused BatchSpan(%d, %d) = %d, want 1", tc.jobs, tc.workers, got)
		}
		if got := BatchSpan(phased, tc.jobs, tc.workers); got != 1 {
			t.Errorf("phased BatchSpan(%d, %d) = %d, want 1", tc.jobs, tc.workers, got)
		}
	}

	old := fuseMinBytes
	fuseMinBytes = 0
	t.Cleanup(func() { fuseMinBytes = old })
	for _, tc := range []struct {
		jobs, workers, want int
	}{
		{60, 1, 16},   // one worker: fuse hard, capped at 16
		{60, 8, 3},    // keep ≥2 jobs per worker
		{10, 8, 1},    // fewer jobs than 2×workers: no fusion
		{0, 4, 1},     // no jobs: degenerate but safe
		{60, 0, 16},   // workers < 1 counts as one
		{1000, 4, 16}, // cap
	} {
		if got := BatchSpan(tr, tc.jobs, tc.workers); got != tc.want {
			t.Errorf("fused BatchSpan(%d, %d) = %d, want %d", tc.jobs, tc.workers, got, tc.want)
		}
	}
}
