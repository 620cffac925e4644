// Package tlb models the two-level TLB of the platforms in the paper's
// Table 4: a per-page-size split L1 TLB and a second-level "STLB" that,
// depending on the microarchitecture, holds 4KB translations only
// (SandyBridge/IvyBridge), shares entries between 4KB and 2MB pages
// (Haswell onward), and may add dedicated 1GB entries (Broadwell onward).
//
// The package reports exactly the events the paper's models consume
// (Table 2): H — translations that missed the L1 TLB but hit the L2 TLB;
// M — translations that missed both and required a page walk.
package tlb

import (
	"fmt"

	"mosaic/internal/arch"
	"mosaic/internal/mem"
)

// Outcome classifies one translation lookup.
type Outcome int

// Lookup outcomes.
const (
	// L1Hit: translated by the first-level TLB, no added latency.
	L1Hit Outcome = iota
	// L2Hit: missed L1, hit the L2 TLB (one "H" event, ~7 cycles).
	L2Hit
	// Miss: missed both levels; a page walk is required (one "M" event).
	Miss
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case L1Hit:
		return "L1Hit"
	case L2Hit:
		return "L2Hit"
	case Miss:
		return "Miss"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// setAssoc is a set-associative translation structure with LRU replacement.
// A tag of 0 marks an invalid entry (real tags are never 0 — the size code
// occupies the low bits). Each set's tags sit in recency order — slot 0
// MRU, last slot LRU — and, as in cache.Cache, every access is one
// probe-and-fill pass over its set: the translation ends at MRU whether it
// hit or was filled, and a fill victimizes whatever occupied the back.
// Invalid entries drift to the back and are consumed first, and a
// re-ordered set hits and evicts identically to any other exact-LRU
// bookkeeping.
type setAssoc struct {
	sets    int
	assoc   int
	setMask uint64
	tags    []uint64
}

// newSetAssoc builds a structure with the given total entries and target
// associativity. If entries do not divide into power-of-two sets of the
// requested ways, the structure degrades to fully associative, which is
// how the small structures (e.g. 4×1GB L1, 16×1GB L2) behave anyway.
func newSetAssoc(entries, assoc int) *setAssoc {
	if entries <= 0 {
		return nil
	}
	sets := 1
	if assoc > 0 && assoc <= entries && entries%assoc == 0 && (entries/assoc)&(entries/assoc-1) == 0 {
		sets = entries / assoc
	}
	return &setAssoc{
		sets:    sets,
		assoc:   entries / sets,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, entries),
	}
}

// probe looks tag up in set idx and leaves it at the set's MRU slot,
// reporting whether it was present. One pass does both: each slot the scan
// walks past moves one place toward LRU, so a hit at slot i ends with
// slots [0,i) moved back by one, and a miss ends with the tag filled at
// MRU and the LRU victim dropped off the back.
func (s *setAssoc) probe(idx, tag uint64) bool {
	if s == nil {
		return false
	}
	base := int(idx&s.setMask) * s.assoc
	tags := s.tags[base : base+s.assoc]
	// Slot 0 first: repeated translations of one page are the common case,
	// and an MRU hit needs no re-ordering at all.
	prev := tags[0]
	if prev == tag {
		return true
	}
	tags[0] = tag
	rest := tags[1:]
	for i, cur := range rest {
		rest[i] = prev
		if cur == tag {
			return true
		}
		prev = cur
	}
	return false
}

// reset restores just-built state: with recency kept in tag order that is
// every entry invalid. A nil structure (a level the platform lacks) is a
// no-op.
func (s *setAssoc) reset() {
	if s == nil {
		return
	}
	clear(s.tags)
}

// Stats counts translation events per page size plus the aggregates the
// runtime models use.
type Stats struct {
	Lookups uint64
	L1Hits  uint64
	// L2Hits is the paper's H: L1 misses that hit the L2 TLB.
	L2Hits uint64
	// Misses is the paper's M: translations that required a page walk.
	Misses uint64
	// Per-page-size miss breakdown.
	MissBySize map[mem.PageSize]uint64
}

// Counts is the scalar subset of Stats (no per-size map) — cheap enough
// for a sampled replay to snapshot at every measurement-window boundary.
type Counts struct {
	Lookups uint64
	L1Hits  uint64
	L2Hits  uint64
	Misses  uint64
}

// Sub returns the events accumulated since the earlier snapshot o.
func (c Counts) Sub(o Counts) Counts {
	return Counts{
		Lookups: c.Lookups - o.Lookups,
		L1Hits:  c.L1Hits - o.L1Hits,
		L2Hits:  c.L2Hits - o.L2Hits,
		Misses:  c.Misses - o.Misses,
	}
}

// Add sums two count sets.
func (c Counts) Add(o Counts) Counts {
	return Counts{
		Lookups: c.Lookups + o.Lookups,
		L1Hits:  c.L1Hits + o.L1Hits,
		L2Hits:  c.L2Hits + o.L2Hits,
		Misses:  c.Misses + o.Misses,
	}
}

// TLB is one core's two-level TLB.
type TLB struct {
	cfg arch.TLBConfig
	// Split L1, one structure per page size.
	l14k, l12m, l11g *setAssoc
	// L2: shared 4K(+2M) structure and optional dedicated 1GB structure.
	l2    *setAssoc
	l21g  *setAssoc
	stats Stats
	// missBySize indexes miss counts by sizeCode; Stats() materializes the
	// public map so the per-miss hot path never touches one.
	missBySize [4]uint64
}

// l1For returns the first-level structure for a page size.
func (t *TLB) l1For(ps mem.PageSize) *setAssoc {
	switch ps {
	case mem.Page4K:
		return t.l14k
	case mem.Page2M:
		return t.l12m
	case mem.Page1G:
		return t.l11g
	}
	return nil
}

// sizeCode tags shared-structure entries so 4KB and 2MB translations of
// numerically equal page numbers never alias.
func sizeCode(ps mem.PageSize) uint64 {
	switch ps {
	case mem.Page4K:
		return 1
	case mem.Page2M:
		return 2
	case mem.Page1G:
		return 3
	}
	return 0
}

// New builds a TLB from a platform's configuration.
func New(cfg arch.TLBConfig) *TLB {
	t := &TLB{
		cfg:  cfg,
		l14k: newSetAssoc(cfg.L1Entries4K, cfg.L1Assoc),
		l12m: newSetAssoc(cfg.L1Entries2M, cfg.L1Assoc),
		l11g: newSetAssoc(cfg.L1Entries1G, cfg.L1Assoc),
		l2:   newSetAssoc(cfg.L2Entries4K, cfg.L2Assoc),
	}
	if cfg.L2Entries1G > 0 {
		t.l21g = newSetAssoc(cfg.L2Entries1G, cfg.L2Assoc)
	}
	return t
}

// l2For returns the second-level structure that caches translations of
// this size, or nil where the platform's L2 TLB does not hold them.
func (t *TLB) l2For(ps mem.PageSize) *setAssoc {
	switch ps {
	case mem.Page4K:
		return t.l2
	case mem.Page2M:
		if t.cfg.L2Shared2M {
			return t.l2
		}
	case mem.Page1G:
		return t.l21g
	}
	return nil
}

// Lookup translates one access to a page of the given size and leaves the
// translation filled on the way down: a miss in the L1 fills the L1, and a
// miss in an L2 that holds this size fills the L2. After a Miss the caller
// performs the page walk; the TLB already holds its result, so no separate
// fill follows.
func (t *TLB) Lookup(v mem.Addr, ps mem.PageSize) Outcome {
	t.stats.Lookups++
	code := sizeCode(ps)
	vpn := mem.PageNumber(v, ps)
	tag := vpn<<2 | code
	if t.l1For(ps).probe(vpn, tag) {
		t.stats.L1Hits++
		return L1Hit
	}
	if t.l2For(ps).probe(vpn, tag) {
		t.stats.L2Hits++
		return L2Hit
	}
	t.stats.Misses++
	t.missBySize[code]++
	return Miss
}

// Insert installs a translation into the L1 and (where supported) the L2
// without counting a lookup. Right after a Lookup that missed, the
// translation already sits at both MRU slots, so Insert then costs one
// compare per level.
func (t *TLB) Insert(v mem.Addr, ps mem.PageSize) {
	vpn := mem.PageNumber(v, ps)
	tag := vpn<<2 | sizeCode(ps)
	t.l1For(ps).probe(vpn, tag)
	t.l2For(ps).probe(vpn, tag)
}

// Reset restores the TLB to its just-built state: every entry invalidated,
// recency clocks rewound, counters zeroed. A Reset TLB behaves
// bit-identically to a freshly constructed one, which is what lets the
// simulation engine pool reuse TLBs across replays.
func (t *TLB) Reset() {
	t.l14k.reset()
	t.l12m.reset()
	t.l11g.reset()
	t.l2.reset()
	t.l21g.reset()
	t.stats = Stats{}
	t.missBySize = [4]uint64{}
}

// Counts returns the current scalar counters without materializing the
// per-size map Stats builds.
func (t *TLB) Counts() Counts {
	return Counts{
		Lookups: t.stats.Lookups,
		L1Hits:  t.stats.L1Hits,
		L2Hits:  t.stats.L2Hits,
		Misses:  t.stats.Misses,
	}
}

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats {
	out := t.stats
	out.MissBySize = make(map[mem.PageSize]uint64, 3)
	for _, ps := range []mem.PageSize{mem.Page4K, mem.Page2M, mem.Page1G} {
		if n := t.missBySize[sizeCode(ps)]; n > 0 {
			out.MissBySize[ps] = n
		}
	}
	return out
}
