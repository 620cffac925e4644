package tlb

import (
	"math/rand"
	"slices"
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/mem"
)

func TestMissThenHit(t *testing.T) {
	tb := New(arch.SandyBridge.TLB)
	v := mem.Addr(0x12345000)
	if got := tb.Lookup(v, mem.Page4K); got != Miss {
		t.Fatalf("cold lookup = %v, want Miss", got)
	}
	tb.Insert(v, mem.Page4K)
	if got := tb.Lookup(v, mem.Page4K); got != L1Hit {
		t.Fatalf("warm lookup = %v, want L1Hit", got)
	}
	// Same page, different offset.
	if got := tb.Lookup(v+0xfff, mem.Page4K); got != L1Hit {
		t.Fatalf("same-page lookup = %v, want L1Hit", got)
	}
	st := tb.Stats()
	if st.Misses != 1 || st.L1Hits != 2 || st.Lookups != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	cfg := arch.SandyBridge.TLB // 64-entry L1, 512-entry L2 for 4KB
	tb := New(cfg)
	// Install 256 translations: all fit in L2, only the last 64ish in L1.
	for i := 0; i < 256; i++ {
		v := mem.Addr(i) << 12
		tb.Lookup(v, mem.Page4K)
		tb.Insert(v, mem.Page4K)
	}
	// Page 0 must have been evicted from L1 but still be in L2.
	if got := tb.Lookup(0, mem.Page4K); got != L2Hit {
		t.Fatalf("lookup after L1 eviction = %v, want L2Hit", got)
	}
	st := tb.Stats()
	if st.L2Hits == 0 {
		t.Error("no H events recorded")
	}
	// The L2 hit refills L1: the next lookup is an L1 hit.
	if got := tb.Lookup(0, mem.Page4K); got != L1Hit {
		t.Fatalf("lookup after L2 refill = %v, want L1Hit", got)
	}
}

// SandyBridge's L2 TLB holds 4KB translations only: a 2MB translation
// evicted from its 32-entry L1 misses outright (Table 4).
func TestSandyBridge2MNotInL2(t *testing.T) {
	tb := New(arch.SandyBridge.TLB)
	for i := 0; i < 64; i++ {
		v := mem.Addr(i) * mem.Addr(mem.Page2M)
		tb.Lookup(v, mem.Page2M)
		tb.Insert(v, mem.Page2M)
	}
	if got := tb.Lookup(0, mem.Page2M); got != Miss {
		t.Fatalf("SandyBridge evicted 2MB lookup = %v, want Miss", got)
	}
}

// Haswell shares its L2 TLB between 4KB and 2MB translations.
func TestHaswell2MSharedL2(t *testing.T) {
	tb := New(arch.Haswell.TLB)
	for i := 0; i < 64; i++ {
		v := mem.Addr(i) * mem.Addr(mem.Page2M)
		tb.Lookup(v, mem.Page2M)
		tb.Insert(v, mem.Page2M)
	}
	if got := tb.Lookup(0, mem.Page2M); got != L2Hit {
		t.Fatalf("Haswell evicted 2MB lookup = %v, want L2Hit", got)
	}
}

// Broadwell has 16 dedicated 1GB L2 entries; SandyBridge has none.
func Test1GEntries(t *testing.T) {
	bdw := New(arch.Broadwell.TLB)
	snb := New(arch.SandyBridge.TLB)
	for i := 0; i < 8; i++ {
		v := mem.Addr(i) * mem.Addr(mem.Page1G)
		for _, tb := range []*TLB{bdw, snb} {
			tb.Lookup(v, mem.Page1G)
			tb.Insert(v, mem.Page1G)
		}
	}
	// Page 0 left the 4-entry L1 on both; only Broadwell's L2 retains it.
	if got := bdw.Lookup(0, mem.Page1G); got != L2Hit {
		t.Errorf("Broadwell 1GB lookup = %v, want L2Hit", got)
	}
	if got := snb.Lookup(0, mem.Page1G); got != Miss {
		t.Errorf("SandyBridge 1GB lookup = %v, want Miss", got)
	}
}

// 4KB and 2MB entries with equal page numbers must not alias in the shared L2.
func TestNoCrossSizeAliasing(t *testing.T) {
	tb := New(arch.Haswell.TLB)
	// VPN 5 as a 4KB page and VPN 5 as a 2MB page are different addresses.
	v4k := mem.Addr(5) << 12
	v2m := mem.Addr(5) * mem.Addr(mem.Page2M)
	tb.Lookup(v4k, mem.Page4K)
	tb.Insert(v4k, mem.Page4K)
	if got := tb.Lookup(v2m, mem.Page2M); got != Miss {
		t.Fatalf("cross-size lookup = %v, want Miss", got)
	}
}

func TestCapacityBehaviour(t *testing.T) {
	// Sweeping far beyond L2 capacity (512) must produce ~100% misses on
	// the second pass too (LRU under a streaming pattern).
	tb := New(arch.SandyBridge.TLB)
	n := 4096
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			v := mem.Addr(i) << 12
			if tb.Lookup(v, mem.Page4K) == Miss {
				tb.Insert(v, mem.Page4K)
			}
		}
	}
	st := tb.Stats()
	if st.Misses < uint64(2*n)*9/10 {
		t.Errorf("streaming sweep: misses = %d of %d lookups", st.Misses, st.Lookups)
	}
	if st.MissBySize[mem.Page4K] != st.Misses {
		t.Errorf("per-size miss accounting inconsistent: %+v", st)
	}
}

func TestWorkingSetWithinL1(t *testing.T) {
	tb := New(arch.SandyBridge.TLB)
	// 32 pages fit the 64-entry L1 easily.
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < 32; i++ {
			v := mem.Addr(i) << 12
			if tb.Lookup(v, mem.Page4K) == Miss {
				tb.Insert(v, mem.Page4K)
			}
		}
	}
	st := tb.Stats()
	if st.Misses != 32 {
		t.Errorf("resident set misses = %d, want 32 (cold only)", st.Misses)
	}
	if st.L1Hits != st.Lookups-32 {
		t.Errorf("L1 hits = %d of %d", st.L1Hits, st.Lookups)
	}
}

func TestReset(t *testing.T) {
	tb := New(arch.Broadwell.TLB)
	tb.Lookup(0x1000, mem.Page4K)
	tb.Insert(0x1000, mem.Page4K)
	tb.Reset()
	if got := tb.Lookup(0x1000, mem.Page4K); got != Miss {
		t.Errorf("post-reset lookup = %v, want Miss", got)
	}
}

func TestOutcomeString(t *testing.T) {
	if L1Hit.String() != "L1Hit" || L2Hit.String() != "L2Hit" || Miss.String() != "Miss" {
		t.Error("outcome names wrong")
	}
	if Outcome(7).String() != "Outcome(7)" {
		t.Error("unknown outcome formatting")
	}
}

func TestSetAssocDegradesToFullyAssociative(t *testing.T) {
	// 16 entries with assoc 12 does not divide: must become fully assoc.
	s := newSetAssoc(16, 12)
	if s.sets != 1 || s.assoc != 16 {
		t.Errorf("degraded structure = %d sets × %d ways", s.sets, s.assoc)
	}
	// Non-power-of-two sets degrade too.
	s = newSetAssoc(24, 4) // 6 sets
	if s.sets != 1 {
		t.Errorf("24/4 should degrade to fully associative, got %d sets", s.sets)
	}
	if newSetAssoc(0, 4) != nil {
		t.Error("zero entries should yield nil structure")
	}
}

// refLRU is the textbook exact-LRU model probe must match: each set is a
// recency list, MRU first, that a hit reorders and a miss prepends to,
// dropping the LRU entry once the set is full.
type refLRU struct {
	assoc int
	sets  [][]uint64
}

func (r *refLRU) access(set int, key uint64) bool {
	l := r.sets[set]
	i := slices.Index(l, key)
	if i >= 0 {
		l = slices.Delete(l, i, i+1)
	}
	l = slices.Insert(l, 0, key)
	r.sets[set] = l[:min(len(l), r.assoc)]
	return i >= 0
}

// TestProbeMatchesReferenceLRU drives random streams over a page universe
// about twice each structure's capacity, so hits at every depth, refreshes
// and evictions all occur, and checks every hit/miss and the final
// recency order of every set against refLRU.
func TestProbeMatchesReferenceLRU(t *testing.T) {
	const accesses = 100_000
	for _, geom := range []struct{ entries, assoc int }{
		{64, 4},     // 16 sets: the SandyBridge 4KB L1
		{1024, 8},   // 128 sets: the Haswell L2
		{16, 12},    // degrades to fully associative
		{24, 4},     // 6 sets: degrades to fully associative
		{4, 4},      // one set by construction
		{512, 1024}, // more ways than entries: fully associative
	} {
		s := newSetAssoc(geom.entries, geom.assoc)
		ref := &refLRU{assoc: s.assoc, sets: make([][]uint64, s.sets)}
		rng := rand.New(rand.NewSource(int64(geom.entries*100 + geom.assoc)))
		universe := make([]uint64, 2*geom.entries)
		for i := range universe {
			universe[i] = rng.Uint64() >> 12
		}
		for n := 0; n < accesses; n++ {
			vpn := universe[rng.Intn(len(universe))]
			tag := vpn<<2 | sizeCode(mem.Page4K)
			got := s.probe(vpn, tag)
			if want := ref.access(int(vpn%uint64(s.sets)), tag); got != want {
				t.Fatalf("%d entries/%d-way: access %d (vpn %#x) hit=%v, reference says %v",
					geom.entries, geom.assoc, n, vpn, got, want)
			}
		}
		for set, l := range ref.sets {
			want := make([]uint64, s.assoc)
			copy(want, l)
			if got := s.tags[set*s.assoc : (set+1)*s.assoc]; !slices.Equal(got, want) {
				t.Errorf("%d entries/%d-way: set %d order %v, reference %v", geom.entries, geom.assoc, set, got, want)
			}
		}
	}
}

// Lookup fills on the way down, so a Miss followed by Insert leaves the
// TLB exactly as the Miss alone does: the walk's result is already in.
func TestLookupFillsOnMiss(t *testing.T) {
	for _, plat := range []arch.Platform{arch.SandyBridge, arch.Haswell, arch.Broadwell} {
		a, b := New(plat.TLB), New(plat.TLB)
		rng := rand.New(rand.NewSource(7))
		sizes := []mem.PageSize{mem.Page4K, mem.Page2M, mem.Page1G}
		for n := 0; n < 20_000; n++ {
			ps := sizes[rng.Intn(len(sizes))]
			v := mem.Addr(rng.Intn(1<<12)) * mem.Addr(ps)
			oa, ob := a.Lookup(v, ps), b.Lookup(v, ps)
			if oa != ob {
				t.Fatalf("%s: access %d: outcomes diverge: %v vs %v", plat.Name, n, oa, ob)
			}
			if ob == Miss {
				b.Insert(v, ps)
			}
		}
		tags := func(s *setAssoc) []uint64 {
			if s == nil {
				return nil
			}
			return s.tags
		}
		if !slices.Equal(tags(a.l14k), tags(b.l14k)) || !slices.Equal(tags(a.l12m), tags(b.l12m)) ||
			!slices.Equal(tags(a.l11g), tags(b.l11g)) || !slices.Equal(tags(a.l2), tags(b.l2)) ||
			!slices.Equal(tags(a.l21g), tags(b.l21g)) {
			t.Errorf("%s: Insert after a Miss changed the TLB", plat.Name)
		}
	}
}
