package walker

import (
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/cache"
	"mosaic/internal/mem"
)

func setup(t *testing.T) (*mem.AddressSpace, *cache.Hierarchy) {
	t.Helper()
	as, err := mem.NewAddressSpace(1 << 36)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cache.NewHierarchy(arch.SandyBridge)
	if err != nil {
		t.Fatal(err)
	}
	return as, h
}

func TestWalkRefCounts(t *testing.T) {
	cases := []struct {
		size mem.PageSize
		refs int
	}{
		{mem.Page4K, 4},
		{mem.Page2M, 3},
		{mem.Page1G, 2},
	}
	for _, c := range cases {
		as, h := setup(t)
		base := mem.Addr(c.size) * 4
		if err := as.Map(mem.NewRegion(base, uint64(c.size)), c.size); err != nil {
			t.Fatal(err)
		}
		// No PWC: all levels load from memory.
		w := New(mem.NewTranslator(as.PageTable()), h, arch.PWCConfig{})
		res := w.Walk(base + 5)
		if res.Fault {
			t.Fatalf("%s: fault", c.size)
		}
		if res.Refs != c.refs {
			t.Errorf("%s: refs = %d, want %d", c.size, res.Refs, c.refs)
		}
		if res.Size != c.size {
			t.Errorf("%s: size = %v", c.size, res.Size)
		}
		if res.Latency < c.refs*4 {
			t.Errorf("%s: latency %d suspiciously low for %d dependent loads", c.size, res.Latency, res.Refs)
		}
	}
}

func TestPWCSkipsLevels(t *testing.T) {
	as, h := setup(t)
	if err := as.Map(mem.NewRegion(0, 64<<20), mem.Page4K); err != nil {
		t.Fatal(err)
	}
	w := New(mem.NewTranslator(as.PageTable()), h, arch.SandyBridge.PWC)
	// First walk: cold PWC, 4 refs.
	r1 := w.Walk(0x1000)
	if r1.Refs != 4 || r1.Skipped != 0 {
		t.Fatalf("cold walk: refs=%d skipped=%d", r1.Refs, r1.Skipped)
	}
	// Second walk within the same 2MB region: the PDE PWC entry lets the
	// walker go straight to the PTE.
	r2 := w.Walk(0x2000)
	if r2.Skipped != 3 || r2.Refs != 1 {
		t.Fatalf("PWC walk: refs=%d skipped=%d, want 1/3", r2.Refs, r2.Skipped)
	}
	st := w.Stats()
	if st.PWCHitPD != 1 {
		t.Errorf("PWC PD hits = %d, want 1", st.PWCHitPD)
	}
	// Walks in a different 2MB region but same 1GB region: PDPT hit.
	r3 := w.Walk(mem.Addr(40 << 20))
	if r3.Skipped != 2 || r3.Refs != 2 {
		t.Fatalf("PDPT-hit walk: refs=%d skipped=%d, want 2/2", r3.Refs, r3.Skipped)
	}
}

func TestTerminalEntriesNotInPWC(t *testing.T) {
	as, h := setup(t)
	// A 2MB page's PDE is terminal; it must not enter the PD PWC.
	if err := as.Map(mem.NewRegion(0, 4<<20), mem.Page2M); err != nil {
		t.Fatal(err)
	}
	w := New(mem.NewTranslator(as.PageTable()), h, arch.SandyBridge.PWC)
	w.Walk(0x1000)
	r := w.Walk(0x2000) // same 2MB page region; PDPT PWC should hit, PD not
	if r.Skipped != 2 {
		t.Errorf("2MB re-walk skipped = %d, want 2 (PDPT hit, no PD entry)", r.Skipped)
	}
}

func TestWalkFault(t *testing.T) {
	as, h := setup(t)
	w := New(mem.NewTranslator(as.PageTable()), h, arch.SandyBridge.PWC)
	res := w.Walk(0xdead000)
	if !res.Fault {
		t.Error("walk of unmapped address should fault")
	}
	if w.Stats().Faults != 1 {
		t.Error("fault not counted")
	}
}

func TestWalkerLoadsCountedAsWalker(t *testing.T) {
	as, h := setup(t)
	if err := as.Map(mem.NewRegion(0, 2<<20), mem.Page4K); err != nil {
		t.Fatal(err)
	}
	w := New(mem.NewTranslator(as.PageTable()), h, arch.PWCConfig{})
	w.Walk(0x1000)
	st := h.Stats()
	if st.L1Loads.Walker != 4 || st.L1Loads.Program != 0 {
		t.Errorf("cache loads = %+v, want 4 walker / 0 program", st.L1Loads)
	}
}

func TestWarmWalksGetFaster(t *testing.T) {
	as, h := setup(t)
	if err := as.Map(mem.NewRegion(0, 2<<20), mem.Page4K); err != nil {
		t.Fatal(err)
	}
	w := New(mem.NewTranslator(as.PageTable()), h, arch.PWCConfig{}) // isolate cache warming
	cold := w.Walk(0x1000).Latency
	warm := w.Walk(0x1000).Latency
	if warm >= cold {
		t.Errorf("warm walk (%d) not faster than cold (%d)", warm, cold)
	}
}

func TestPWCLRUReplacement(t *testing.T) {
	p := newPWC(2)
	p.insert(1)
	p.insert(2)
	p.lookup(1) // refresh 1
	p.insert(3) // evicts 2
	if !p.lookup(1) || p.lookup(2) || !p.lookup(3) {
		t.Error("PWC LRU replacement wrong")
	}
	// Re-inserting an existing key must not duplicate it.
	p.insert(3)
	if len(p.keys) != 2 {
		t.Errorf("PWC grew to %d entries", len(p.keys))
	}
	var nilp *pwc
	if nilp.lookup(1) {
		t.Error("nil PWC should miss")
	}
	nilp.insert(1) // must not panic
}

func TestWalkCycleAccounting(t *testing.T) {
	as, h := setup(t)
	if err := as.Map(mem.NewRegion(0, 2<<20), mem.Page4K); err != nil {
		t.Fatal(err)
	}
	w := New(mem.NewTranslator(as.PageTable()), h, arch.PWCConfig{})
	total := 0
	for i := 0; i < 10; i++ {
		total += w.Walk(mem.Addr(i) << 12).Latency
	}
	if w.Stats().WalkCycles != uint64(total) {
		t.Errorf("WalkCycles = %d, want %d", w.Stats().WalkCycles, total)
	}
	if w.Stats().Walks != 10 {
		t.Errorf("Walks = %d", w.Stats().Walks)
	}
}
