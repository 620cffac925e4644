package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/mem"
)

func small() arch.CacheConfig {
	return arch.CacheConfig{SizeBytes: 4 << 10, LineBytes: 64, Assoc: 4, LatencyCycle: 4}
}

func TestCacheHitAfterInsert(t *testing.T) {
	c, err := NewCache("t", small())
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000) {
		t.Error("cold cache should miss")
	}
	// The miss filled the line.
	if !c.Access(0x1000) {
		t.Error("filled line should hit")
	}
	// Same line, different byte.
	if !c.Access(0x103f) {
		t.Error("same-line offset should hit")
	}
	if c.Access(0x1040) {
		t.Error("next line should miss")
	}
}

// The eviction tests probe the lines that must survive before the one that
// must have gone: a probe that misses fills, so probing the victim first
// would itself evict a survivor.

func TestCacheLRUEviction(t *testing.T) {
	c, _ := NewCache("t", small())
	sets := c.Sets()
	// Fill one set beyond capacity; the first-filled line is evicted.
	stride := mem.Addr(sets * 64)
	for i := 0; i <= c.Assoc(); i++ {
		if c.Access(mem.Addr(i) * stride) {
			t.Fatalf("fill %d hit a cold set", i)
		}
	}
	for i := 1; i <= c.Assoc(); i++ {
		if !c.Access(mem.Addr(i) * stride) {
			t.Errorf("line filled %d-th should survive", i+1)
		}
	}
	if c.Access(0) {
		t.Error("LRU victim should have been evicted")
	}
}

func TestCacheLRUTouchPreventsEviction(t *testing.T) {
	c, _ := NewCache("t", small())
	stride := mem.Addr(c.Sets() * 64)
	for i := 0; i < c.Assoc(); i++ {
		c.Access(mem.Addr(i) * stride)
	}
	if !c.Access(0) { // refresh line 0
		t.Fatal("resident line should hit")
	}
	if c.Access(mem.Addr(c.Assoc()) * stride) {
		t.Fatal("new line should miss")
	}
	if !c.Access(0) {
		t.Error("recently touched line should survive")
	}
	if c.Access(stride) {
		t.Error("the now-LRU line should have been evicted")
	}
}

// refLRU is the textbook exact-LRU model probe must match: each set is a
// recency list, MRU first, that a hit reorders and a miss prepends to,
// dropping the LRU entry once the set is full.
type refLRU struct {
	assoc int
	sets  [][]uint64
}

func newRefLRU(sets, assoc int) *refLRU {
	return &refLRU{assoc: assoc, sets: make([][]uint64, sets)}
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

// TestProbeMatchesReferenceLRU drives random streams over a block universe
// about twice each cache's capacity, so hits at every depth, refreshes and
// evictions all occur, and checks every hit/miss and the final recency
// order of every set against refLRU.
func TestProbeMatchesReferenceLRU(t *testing.T) {
	const accesses = 100_000
	for _, assoc := range []int{1, 4, 8, 20} {
		for _, sets := range []int{16, 12} { // power of two, and the fastmod path
			c, err := NewCache("t", arch.CacheConfig{SizeBytes: sets * assoc * 64, LineBytes: 64, Assoc: assoc})
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefLRU(sets, assoc)
			rng := rand.New(rand.NewSource(int64(assoc*100 + sets)))
			universe := make([]uint64, 2*sets*assoc)
			for i := range universe {
				universe[i] = rng.Uint64() % maxBlock
			}
			for n := 0; n < accesses; n++ {
				blk := universe[rng.Intn(len(universe))]
				got := c.Access(mem.Addr(blk << 6))
				if want := ref.access(int(blk%uint64(sets)), blk); got != want {
					t.Fatalf("assoc %d, %d sets: access %d (block %#x) hit=%v, reference says %v",
						assoc, sets, n, blk, got, want)
				}
			}
			tags := c.tags
			for set, l := range ref.sets {
				want := make([]uint32, assoc)
				for i, blk := range l {
					want[i] = uint32(blk) + 1
				}
				if got := tags[set*assoc : (set+1)*assoc]; !slices.Equal(got, want) {
					t.Errorf("assoc %d, %d sets: set %d order %v, reference %v", assoc, sets, set, got, want)
				}
			}
		}
	}
}

// A block number beyond the 32-bit tag width must fail loudly: truncated,
// it would alias a resident line whose low 32 bits match.
func TestAccessRejectsTagAliasing(t *testing.T) {
	const alias = mem.Addr(1<<38 | 0x40)
	mustPanic := func(name string, access func() string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		t.Errorf("%s: address %#x served: %s", name, uint64(alias), access())
	}
	h, _ := NewHierarchy(arch.SandyBridge)
	h.Access(0x40, false)
	mustPanic("Hierarchy.Access", func() string {
		lvl, lat := h.Access(alias, false)
		return fmt.Sprintf("%v after %d cycles", lvl, lat)
	})
	c, _ := NewCache("t", small())
	c.Access(0x40)
	mustPanic("Cache.Access", func() string {
		return fmt.Sprintf("hit=%v", c.Access(alias))
	})
}

func TestHierarchyRejectsMixedLineSizes(t *testing.T) {
	p := arch.SandyBridge
	p.L2.LineBytes = 128
	if _, err := NewHierarchy(p); err == nil {
		t.Error("an L2 with 128B lines under 64B L1d/L3 lines should be refused")
	}
}

func TestCacheConfigErrors(t *testing.T) {
	for _, cfg := range []arch.CacheConfig{
		{},
		{SizeBytes: 4096, LineBytes: 63, Assoc: 4},
		{SizeBytes: 5000, LineBytes: 64, Assoc: 4},
	} {
		if _, err := NewCache("bad", cfg); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewHierarchy(arch.SandyBridge)
	if err != nil {
		t.Fatal(err)
	}
	// Cold access: DRAM.
	lvl, lat := h.Access(0x100000, false)
	if lvl != LevelDRAM || lat != arch.SandyBridge.DRAMLat {
		t.Errorf("cold access: %v/%d", lvl, lat)
	}
	// Hot access: L1.
	lvl, lat = h.Access(0x100000, false)
	if lvl != LevelL1 || lat != arch.SandyBridge.L1D.LatencyCycle {
		t.Errorf("hot access: %v/%d", lvl, lat)
	}
	st := h.Stats()
	if st.L1Loads.Program != 2 || st.DRAMLoads.Program != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHierarchyWalkerSplit(t *testing.T) {
	h, _ := NewHierarchy(arch.SandyBridge)
	h.Access(0x1000, false)
	h.Access(0x2000, true)
	h.Access(0x3000, true)
	st := h.Stats()
	if st.L1Loads.Program != 1 || st.L1Loads.Walker != 2 {
		t.Errorf("program/walker split = %d/%d, want 1/2", st.L1Loads.Program, st.L1Loads.Walker)
	}
	if st.L1Loads.Total() != 3 {
		t.Errorf("total = %d", st.L1Loads.Total())
	}
}

// Walker fills must be able to evict program data: the pollution mechanism.
func TestWalkerPollutionEvictsProgramData(t *testing.T) {
	h, _ := NewHierarchy(arch.SandyBridge)
	// Warm a program line.
	h.Access(0x4000, false)
	if lvl, _ := h.Access(0x4000, false); lvl != LevelL1 {
		t.Fatal("line should be warm")
	}
	// Hammer the same L1 set with walker loads. L1: 64 sets of 8 ways →
	// set stride is 64*64 bytes.
	stride := mem.Addr(64 * 64)
	for i := 1; i <= 16; i++ {
		h.Access(0x4000+mem.Addr(i)*stride, true)
	}
	if lvl, _ := h.Access(0x4000, false); lvl == LevelL1 {
		t.Error("walker fills should have evicted the program line from L1")
	}
}

func TestReset(t *testing.T) {
	h, _ := NewHierarchy(arch.SandyBridge)
	h.Access(0x1000, false)
	h.Reset()
	if lvl, _ := h.Access(0x1000, false); lvl != LevelDRAM {
		t.Error("reset should cold the hierarchy")
	}
}

func TestLevelString(t *testing.T) {
	for lvl, want := range map[Level]string{LevelL1: "L1", LevelL2: "L2", LevelL3: "L3", LevelDRAM: "DRAM"} {
		if lvl.String() != want {
			t.Errorf("%d.String() = %q", int(lvl), lvl.String())
		}
	}
	if Level(9).String() != "Level(9)" {
		t.Error("unknown level formatting")
	}
}

// Hit rate sanity: a working set within L1 capacity hits ~100% after warmup;
// a random set far beyond L3 misses to DRAM frequently.
func TestHierarchyHitRates(t *testing.T) {
	h, _ := NewHierarchy(arch.SandyBridge)
	// 16KB working set fits in 32KB L1.
	for pass := 0; pass < 4; pass++ {
		for a := mem.Addr(0); a < 16<<10; a += 64 {
			h.Access(a, false)
		}
	}
	st := h.Stats()
	// Last 3 passes should be pure L1 hits: misses only from the first.
	if st.L2Loads.Program > st.L1Loads.Program/3 {
		t.Errorf("too many L1 misses for resident set: %+v", st)
	}

	h2, _ := NewHierarchy(arch.SandyBridge)
	rng := rand.New(rand.NewSource(1))
	dram := 0
	for i := 0; i < 20000; i++ {
		a := mem.Addr(rng.Uint64() % (1 << 30)) // 1GB range >> 15MB L3
		if lvl, _ := h2.Access(a, false); lvl == LevelDRAM {
			dram++
		}
	}
	if dram < 15000 {
		t.Errorf("random 1GB accesses: only %d/20000 DRAM misses", dram)
	}
}
