// Package cache models the on-chip data-cache hierarchy (L1d, L2, L3) plus
// DRAM. The page-table walker's loads go through the same hierarchy as
// program loads, so walker activity pollutes the caches and evicts warm
// application data — the mechanism behind the paper's Table 7 observation
// (extra L3 loads under 4KB pages) and the >1 model slopes of Figure 9.
package cache

import (
	"fmt"
	"math/bits"

	"mosaic/internal/arch"
	"mosaic/internal/mem"
)

// Level identifies where an access was served.
type Level int

// Hierarchy levels, in lookup order.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelDRAM
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelDRAM:
		return "DRAM"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Cache is one set-associative, LRU-replacement cache level indexed and
// tagged by physical address. Each set's tags are kept in recency order —
// slot 0 is the MRU line, the last slot the LRU victim — and every access
// is one probe-and-fill pass over its set (see probe): the pass shifts each
// slot it walks past one place toward LRU and puts the accessed tag at MRU,
// so a hit and a miss-plus-fill both cost a single scan. Invalid lines
// drift to the back and are victimized first, and a re-ordered set hits
// and evicts identically to any other exact-LRU bookkeeping.
type Cache struct {
	name     string
	sets     int
	assoc    int
	lineBits uint
	pow2     bool   // sets is a power of two
	setMask  uint64 // sets-1 when pow2
	fastM    uint64 // Lemire fastmod magic otherwise
	// tags holds block number + 1 per line; 0 marks an invalid line. Tags
	// are 32-bit: modelled physical memory tops out at 64GB (2^36) and
	// lines are ≥64B, so block numbers need at most 30 bits — and halving
	// the tag width halves the bytes every probe streams through the set.
	// Every access checks the width before it probes, so an out-of-range
	// address fails loudly rather than aliasing.
	tags    []uint32
	latency int
}

// NewCache builds a cache level from its configuration.
func NewCache(name string, cfg arch.CacheConfig) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Assoc <= 0 {
		return nil, fmt.Errorf("cache: bad config for %s: %+v", name, cfg)
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: %s line size %d not a power of two", name, cfg.LineBytes)
	}
	if cfg.SizeBytes%(cfg.LineBytes*cfg.Assoc) != 0 {
		return nil, fmt.Errorf("cache: %s size %d not divisible into %d-way sets of %dB lines",
			name, cfg.SizeBytes, cfg.Assoc, cfg.LineBytes)
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	if cfg.Assoc > 1<<16 {
		return nil, fmt.Errorf("cache: %s associativity %d exceeds %d ways", name, cfg.Assoc, 1<<16)
	}
	c := &Cache{
		name:     name,
		sets:     sets,
		assoc:    cfg.Assoc,
		lineBits: lineBits,
		tags:     make([]uint32, sets*cfg.Assoc),
		latency:  cfg.LatencyCycle,
	}
	if sets&(sets-1) == 0 {
		c.pow2 = true
		c.setMask = uint64(sets - 1)
	} else {
		c.fastM = ^uint64(0)/uint64(sets) + 1
	}
	return c, nil
}

// maxBlock bounds the block numbers a 32-bit tag (block + 1, with 0 kept
// for invalid lines) can hold.
const maxBlock = 1<<32 - 1

// tagOverflow reports a block number beyond the tag width. It is kept out
// of line so the formatting stays off the per-access kernels.
//
//go:noinline
func tagOverflow(name string, blk uint64) {
	panic(fmt.Sprintf("cache: %s: block %#x exceeds the 32-bit tag width", name, blk))
}

// setIndex maps a block number to its set. Real L3 slices are not
// power-of-two counts (e.g. 15MB/20-way = 12288 sets), and a hardware
// divide per probe dominates the scan itself, so non-power-of-two sets use
// Lemire's exact fastmod, which holds because every probed block number
// is below maxBlock and so fits 32 bits.
func (c *Cache) setIndex(blk uint64) int {
	if c.pow2 {
		return int(blk & c.setMask)
	}
	hi, _ := bits.Mul64(c.fastM*blk, uint64(c.sets))
	return int(hi)
}

// Access loads the line containing phys and reports whether it was
// resident. A miss fills the line, evicting the set's LRU victim (which
// simply falls off the back of the set — the model has no writeback
// traffic, so nobody needs the victim's identity).
func (c *Cache) Access(phys mem.Addr) bool {
	blk := uint64(phys) >> c.lineBits
	if blk >= maxBlock {
		tagOverflow(c.name, blk)
	}
	return c.probe(blk)
}

// probe is Access on a pre-shifted, width-checked block number — the
// hierarchy computes the block once per access and probes every level
// with it. One pass looks the tag up and fills it: each slot the scan
// walks past moves one place toward LRU, so a hit at slot i ends with the
// tag at MRU and slots [0,i) moved back by one, and a miss ends with the
// tag at MRU and the LRU victim dropped off the back — exactly the state a
// lookup followed by an insert leaves, in one scan instead of two.
func (c *Cache) probe(blk uint64) bool {
	tagv := uint32(blk) + 1 // full block number as tag (set bits included, harmless)
	base := c.setIndex(blk) * c.assoc
	tags := c.tags[base : base+c.assoc]
	// Slot 0 first: repeated touches of a hot line are the common case,
	// and an MRU hit needs no re-ordering at all.
	prev := tags[0]
	if prev == tagv {
		return true
	}
	tags[0] = tagv
	rest := tags[1:]
	for i, cur := range rest {
		rest[i] = prev
		if cur == tagv {
			return true
		}
		prev = cur
	}
	return false
}

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the associativity (for tests).
func (c *Cache) Assoc() int { return c.assoc }

// Reset restores the just-built state, every line invalid: a Reset cache
// behaves bit-identically to a freshly constructed one.
func (c *Cache) Reset() {
	clear(c.tags)
}

// LoadCounts splits per-level load counts by requester, mirroring the
// program/walker breakdown of the paper's Table 7.
type LoadCounts struct {
	Program uint64
	Walker  uint64
}

// Total returns program + walker loads.
func (lc LoadCounts) Total() uint64 { return lc.Program + lc.Walker }

// Sub returns the loads accumulated since the earlier snapshot o.
func (lc LoadCounts) Sub(o LoadCounts) LoadCounts {
	return LoadCounts{Program: lc.Program - o.Program, Walker: lc.Walker - o.Walker}
}

// Add sums two load counts.
func (lc LoadCounts) Add(o LoadCounts) LoadCounts {
	return LoadCounts{Program: lc.Program + o.Program, Walker: lc.Walker + o.Walker}
}

// Stats aggregates hierarchy counters.
type Stats struct {
	// Loads that reached each level (L1d loads = all loads; L2 loads =
	// L1 misses; L3 loads = L2 misses; DRAM = L3 misses), split by
	// requester as in Table 7.
	L1Loads   LoadCounts
	L2Loads   LoadCounts
	L3Loads   LoadCounts
	DRAMLoads LoadCounts
}

// Sub returns the loads accumulated since the earlier snapshot o — the
// window-differencing primitive of sampled replays, which attribute load
// counts to measurement windows by snapshotting cumulative stats at the
// window boundaries.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		L1Loads:   s.L1Loads.Sub(o.L1Loads),
		L2Loads:   s.L2Loads.Sub(o.L2Loads),
		L3Loads:   s.L3Loads.Sub(o.L3Loads),
		DRAMLoads: s.DRAMLoads.Sub(o.DRAMLoads),
	}
}

// Add sums two stat sets.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		L1Loads:   s.L1Loads.Add(o.L1Loads),
		L2Loads:   s.L2Loads.Add(o.L2Loads),
		L3Loads:   s.L3Loads.Add(o.L3Loads),
		DRAMLoads: s.DRAMLoads.Add(o.DRAMLoads),
	}
}

// Hierarchy is the three-level cache plus DRAM. All levels are mostly-
// inclusive: a fill inserts into every level, as on the modelled Intel
// parts (pre-Skylake-SP inclusive L3).
type Hierarchy struct {
	l1, l2, l3 *Cache
	// lineBits is the levels' shared line shift: NewHierarchy requires one
	// line size at all levels (every modelled platform uses 64B lines), so
	// Access shifts the address into a block number once and probes each
	// level with it.
	lineBits uint
	dramLat  int
	stats    Stats
	// walkerPrivate, when non-nil, gives the walker a private cache: its
	// loads no longer touch the shared hierarchy at all — an ablation knob
	// that removes cache pollution while preserving walker locality
	// (DESIGN.md decision 1).
	walkerPrivate *Cache
}

// NewHierarchy builds the hierarchy for a platform.
func NewHierarchy(p arch.Platform) (*Hierarchy, error) {
	l1, err := NewCache("L1d", p.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache("L2", p.L2)
	if err != nil {
		return nil, err
	}
	l3, err := NewCache("L3", p.L3)
	if err != nil {
		return nil, err
	}
	if l2.lineBits != l1.lineBits || l3.lineBits != l1.lineBits {
		return nil, fmt.Errorf("cache: %s: line sizes differ across levels (L1d %dB, L2 %dB, L3 %dB)",
			p.Name, p.L1D.LineBytes, p.L2.LineBytes, p.L3.LineBytes)
	}
	return &Hierarchy{
		l1: l1, l2: l2, l3: l3,
		lineBits: l1.lineBits,
		dramLat:  p.DRAMLat,
	}, nil
}

// SetWalkerPrivate toggles the no-pollution ablation: walker loads are
// served by a private L2-sized cache instead of the shared hierarchy, so
// they neither evict program data nor benefit from it.
func (h *Hierarchy) SetWalkerPrivate(p arch.Platform) error {
	c, err := NewCache("walker-private", p.L2)
	if err != nil {
		return err
	}
	h.walkerPrivate = c
	return nil
}

// Access performs one load of the line containing phys, returning the
// serving level and the access latency in cycles. walker marks page-table
// walker loads, which are counted separately and — crucially — install
// lines in every level just like program loads do, producing the cache
// pollution the paper measures.
//
// Each level is one probe-and-fill pass, L1 first, and Access returns at
// the first level that hits. Filling at probe time is exact: every level
// an access misses must end up holding the line anyway, and the levels
// are separate arrays, so filling L1 before L2 is probed changes nothing
// L2 sees.
//
//mosvet:hotpath
func (h *Hierarchy) Access(phys mem.Addr, walker bool) (Level, int) {
	if walker && h.walkerPrivate != nil {
		h.stats.L1Loads.Walker++
		if h.walkerPrivate.Access(phys) {
			return LevelL2, h.walkerPrivate.latency
		}
		h.stats.DRAMLoads.Walker++
		return LevelDRAM, h.dramLat
	}
	blk := uint64(phys) >> h.lineBits
	if blk >= maxBlock {
		tagOverflow(h.l1.name, blk)
	}
	if walker {
		h.stats.L1Loads.Walker++
		if h.l1.probe(blk) {
			return LevelL1, h.l1.latency
		}
		h.stats.L2Loads.Walker++
		if h.l2.probe(blk) {
			return LevelL2, h.l2.latency
		}
		h.stats.L3Loads.Walker++
		if h.l3.probe(blk) {
			return LevelL3, h.l3.latency
		}
		h.stats.DRAMLoads.Walker++
	} else {
		h.stats.L1Loads.Program++
		if h.l1.probe(blk) {
			return LevelL1, h.l1.latency
		}
		h.stats.L2Loads.Program++
		if h.l2.probe(blk) {
			return LevelL2, h.l2.latency
		}
		h.stats.L3Loads.Program++
		if h.l3.probe(blk) {
			return LevelL3, h.l3.latency
		}
		h.stats.DRAMLoads.Program++
	}
	return LevelDRAM, h.dramLat
}

// Stats returns a copy of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Reset restores the hierarchy to its just-built state: all levels emptied
// with recency clocks rewound, counters zeroed, and the walker-private
// ablation cache removed. The set-associative line arrays are retained, so
// pooled engines skip reallocating them on every replay.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.l3.Reset()
	h.walkerPrivate = nil
	h.stats = Stats{}
}
