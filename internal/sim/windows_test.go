package sim

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/ckpt"
	"mosaic/internal/mem"
)

// windowedKeys builds one checkpoint key per engine for the test store.
func windowedKeys(n int, label string) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = label + "|" + string(rune('a'+i))
	}
	return keys
}

// TestWindowedExactGolden is the tentpole's golden test: exact windowed
// replay at K=8 must be bit-identical to K=1 (plain RunBatch) for both
// engine kinds, solo and fused, sampling on and off — and on a second,
// checkpoint-warm run too.
func TestWindowedExactGolden(t *testing.T) {
	forceFused(t)
	size := uint64(64 << 20)
	spaces := batchTestSpaces(t, size)
	tr := testTrace(21, size, 600000)

	for _, kind := range []string{"full", "partial", "partial-hifi"} {
		for _, s := range []Sampling{
			{},
			{Period: 65536, MeasureLen: 3072, WarmupLen: 8192, PrologueLen: 32768},
		} {
			label := kind + "/exact-plan"
			if s.Enabled() {
				label = kind + "/sampled-plan"
			}
			// Fused reference at K=1.
			want, err := RunBatch(sampledTestEngines(t, kind, spaces), tr, s)
			if err != nil {
				t.Fatal(err)
			}
			if want[0].Counters.M == 0 {
				t.Fatalf("%s: test trace should miss the TLB", label)
			}

			store := &ckpt.Store{Dir: t.TempDir()}
			w := Windowed{K: 8, Store: store, Keys: windowedKeys(len(spaces), label), Pool: &Pool{}}

			// Cold run: no checkpoints yet — one sequential segment that
			// must both reproduce the reference and populate the store.
			cold, err := RunBatchWindowed(sampledTestEngines(t, kind, spaces), tr, s, w)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !cold[i].Equal(want[i]) {
					t.Errorf("%s engine %d: cold windowed %+v, want %+v", label, i, cold[i], want[i])
				}
			}
			files, err := filepath.Glob(filepath.Join(store.Dir, "*.mosckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) == 0 {
				t.Fatalf("%s: cold run saved no checkpoints", label)
			}

			// Warm run: every boundary restores from the store and the
			// segments replay in parallel.
			warm, err := RunBatchWindowed(sampledTestEngines(t, kind, spaces), tr, s, w)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !warm[i].Equal(want[i]) {
					t.Errorf("%s engine %d: warm windowed %+v, want %+v", label, i, warm[i], want[i])
				}
			}

			// Solo golden: a single-engine batch through the same path.
			soloWant, err := RunBatch(sampledTestEngines(t, kind, spaces[:1]), tr, s)
			if err != nil {
				t.Fatal(err)
			}
			sw := w
			sw.Keys = w.Keys[:1]
			solo, err := RunBatchWindowed(sampledTestEngines(t, kind, spaces[:1]), tr, s, sw)
			if err != nil {
				t.Fatal(err)
			}
			if !solo[0].Equal(soloWant[0]) {
				t.Errorf("%s solo: windowed %+v, want %+v", label, solo[0], soloWant[0])
			}
		}
	}
}

// TestWindowedPartialBoundaryCache: when only a subset of boundaries is
// cached, exact mode must still be bit-identical and must fill in the
// missing checkpoints.
func TestWindowedPartialBoundaryCache(t *testing.T) {
	forceFused(t)
	size := uint64(64 << 20)
	spaces := batchTestSpaces(t, size)
	tr := testTrace(22, size, 400000)

	want, err := RunBatch(sampledTestEngines(t, "full", spaces), tr, Sampling{})
	if err != nil {
		t.Fatal(err)
	}

	store := &ckpt.Store{Dir: t.TempDir()}
	w := Windowed{K: 6, Store: store, Keys: windowedKeys(len(spaces), "partial-cache"), Pool: &Pool{}}
	if _, err := RunBatchWindowed(sampledTestEngines(t, "full", spaces), tr, Sampling{}, w); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(store.Dir, "*.mosckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("need at least 2 boundary checkpoints, got %d", len(files))
	}
	// Knock out every other checkpoint file; the affected boundaries fall
	// back to in-segment replay and are re-saved.
	removed := 0
	for i, f := range files {
		if i%2 == 1 {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	got, err := RunBatchWindowed(sampledTestEngines(t, "full", spaces), tr, Sampling{}, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("engine %d: partially-cached windowed %+v, want %+v", i, got[i], want[i])
		}
	}
	refilled, err := filepath.Glob(filepath.Join(store.Dir, "*.mosckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(refilled) != len(files) {
		t.Errorf("after regeneration: %d checkpoints, want %d (removed %d)", len(refilled), len(files), removed)
	}
}

// TestWindowedCrossProcessResume pins the acceptance criterion that a
// MOSCKPT01 checkpoint round-trips bit-identically "across a process
// restart": the resumed suffix replay must reach Float64bits-level equality
// with an uninterrupted run, with the checkpoint passing through the full
// encode → file → decode path (exactly what a second process would read).
func TestWindowedCrossProcessResume(t *testing.T) {
	size := uint64(32 << 20)
	space := buildTestSpace(t, size, mem.Page4K)
	tr := testTrace(23, size, 300000)

	want, err := RunBatch(sampledTestEngines(t, "full", []*mem.AddressSpace{space}), tr, Sampling{})
	if err != nil {
		t.Fatal(err)
	}

	store := &ckpt.Store{Dir: t.TempDir()}
	w := Windowed{K: 4, Store: store, Keys: []string{"resume"}, Pool: &Pool{}}
	if _, err := RunBatchWindowed(sampledTestEngines(t, "full", []*mem.AddressSpace{space}), tr, Sampling{}, w); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh engines, fresh pool, same store directory — resume
	// from the on-disk prefix state only.
	got, err := RunBatchWindowed(sampledTestEngines(t, "full", []*mem.AddressSpace{space}), tr, Sampling{}, Windowed{
		K: 4, Store: store, Keys: []string{"resume"}, Pool: &Pool{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(want[0]) {
		t.Errorf("resumed %+v, uninterrupted %+v", got[0], want[0])
	}
	// R is uint64(st.now): equality above already implies Float64bits-level
	// agreement of the restored clock, but make the criterion explicit by
	// checking the raw counters word-for-word.
	if math.Float64bits(float64(got[0].Counters.R)) != math.Float64bits(float64(want[0].Counters.R)) {
		t.Errorf("R bits differ: %x vs %x", got[0].Counters.R, want[0].Counters.R)
	}
}

// TestWindowedMixedKindsAndFallbacks: mixed-kind batches fuse in one pass
// and keep each engine's own counters; K<2 and tiny traces fall back to
// RunBatch unchanged.
func TestWindowedMixedKindsAndFallbacks(t *testing.T) {
	forceFused(t)
	size := uint64(32 << 20)
	space := buildTestSpace(t, size, mem.Page4K)
	tr := testTrace(25, size, 300000)

	full, err := NewFull(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartial(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	wantF, err := full.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := part.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	mixed := []Engine{
		newFullT(t, space),
		newPartialT(t, space),
	}
	got, err := RunBatchWindowed(mixed, tr, Sampling{}, Windowed{K: 4, Pool: &Pool{}})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(wantF) || !got[1].Equal(wantP) {
		t.Errorf("mixed windowed %+v/%+v, want %+v/%+v", got[0], got[1], wantF, wantP)
	}

	// K<2 falls back.
	solo, err := RunBatchWindowed([]Engine{newFullT(t, space)}, tr, Sampling{}, Windowed{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !solo[0].Equal(wantF) {
		t.Errorf("K=1 %+v, want %+v", solo[0], wantF)
	}

	// A trace below the chunking floor falls back too.
	tiny := testTrace(26, size, 2000)
	tinyWant, err := RunBatch([]Engine{newFullT(t, space)}, tiny, Sampling{})
	if err != nil {
		t.Fatal(err)
	}
	tinyGot, err := RunBatchWindowed([]Engine{newFullT(t, space)}, tiny, Sampling{}, Windowed{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !tinyGot[0].Equal(tinyWant[0]) {
		t.Errorf("tiny trace windowed %+v, want %+v", tinyGot[0], tinyWant[0])
	}
}

func newFullT(t *testing.T, space *mem.AddressSpace) Engine {
	t.Helper()
	e, err := NewFull(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newPartialT(t *testing.T, space *mem.AddressSpace) Engine {
	t.Helper()
	e, err := NewPartial(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWindowedSpaceRefs is the satellite-4 audit: windowed replay's engine
// clones share the job's address space without touching SpaceCache
// refcounts — the job holds the single per-job reference for the whole
// windowed call — so a sweep's cache never leaks or double-frees entries
// however many window workers run. The cache must drain to zero live
// entries after the jobs release their references, and engine clones must
// round-trip through the pool (no leaked engines holding spaces alive).
func TestWindowedSpaceRefs(t *testing.T) {
	cache := NewSpaceCache(testPhysMem)
	configs := []uint64{32 << 20, 64 << 20}
	tr := testTrace(27, 16<<20, 200000)

	pool := &Pool{}
	store := &ckpt.Store{Dir: t.TempDir()}
	keys := make([]string, len(configs))
	for i, heap := range configs {
		keys[i] = cache.Register(testMosallocConfig(heap))
	}
	for i, heap := range configs {
		cfg := testMosallocConfig(heap)
		space, err := cache.Get(keys[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := pool.Full(arch.SandyBridge, space)
		if err != nil {
			t.Fatal(err)
		}
		// Cold run saves the boundaries; the second run resumes from them
		// on pooled clones.
		w := Windowed{K: 4, Store: store, Keys: keys[i : i+1], Pool: pool}
		for run := 0; run < 2; run++ {
			if _, err := RunBatchWindowed([]Engine{eng}, tr, Sampling{}, w); err != nil {
				t.Fatal(err)
			}
		}
		pool.Put(eng)
		cache.Release(keys[i])
	}
	if live := cache.Live(); live != 0 {
		t.Errorf("space cache holds %d live entries after all releases, want 0", live)
	}
	if idle := pool.Idle(); idle < 1 {
		t.Errorf("pool retained %d idle engines; window-worker clones were not returned", idle)
	}
}

// TestWindowedStoreRejectsForeignKey: a checkpoint saved under one key must
// not satisfy a load for another (the store verifies the decoded key).
func TestWindowedStoreRejectsForeignKey(t *testing.T) {
	store := &ckpt.Store{Dir: t.TempDir()}
	size := uint64(16 << 20)
	space := buildTestSpace(t, size, mem.Page4K)
	eng, err := NewFull(arch.SandyBridge, space)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Machine().Snapshot()
	if err := store.Save("key-a", 100, st); err != nil {
		t.Fatal(err)
	}
	// Same path contents, wrong requested key: simulate a collision by
	// copying the file to key-b's path.
	data, err := os.ReadFile(store.Path("key-a", 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path("key-b", 100), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("key-b", 100); err == nil || !strings.Contains(err.Error(), "key") {
		t.Errorf("foreign-key load error = %v, want key mismatch", err)
	}
	// Wrong position likewise.
	if err := os.Rename(store.Path("key-a", 100), store.Path("key-a", 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("key-a", 200); err == nil || !strings.Contains(err.Error(), "position") {
		t.Errorf("stale-position load error = %v, want position mismatch", err)
	}
}
