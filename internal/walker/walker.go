// Package walker models the hardware page-table walker: the unit that
// services L2 TLB misses by reading up to four page-table entries through
// the cache hierarchy. Page-walk caches (PWCs) let the walker skip upper
// levels; hugepages shorten the walk structurally (a 2MB page needs three
// loads, a 1GB page two). Walker loads are tagged so the cache hierarchy
// counts them separately — the program/walker split of the paper's Table 7.
package walker

import (
	"mosaic/internal/arch"
	"mosaic/internal/cache"
	"mosaic/internal/mem"
)

// pwc is one fully associative page-walk cache with LRU replacement.
// Recency is an exact linked list of entry indices, so refreshing an already-MRU key — the common case, since a walk
// re-inserts the keys its own PWC lookup just hit — is a single compare,
// and eviction reads the victim off the list tail.
type pwc struct {
	keys       []uint64
	prev, next []uint16
	head, tail uint16
	n          int // filled entries; keys[:n] are live
}

func newPWC(entries int) *pwc {
	if entries <= 0 {
		return nil
	}
	return &pwc{
		keys: make([]uint64, entries),
		prev: make([]uint16, entries),
		next: make([]uint16, entries),
	}
}

// touch moves live entry i to the MRU head.
func (p *pwc) touch(i int) {
	h := int(p.head)
	if h == i {
		return
	}
	pr := p.prev[i]
	if int(p.tail) == i {
		p.tail = pr
	} else {
		n := p.next[i]
		p.prev[n] = pr
		p.next[pr] = n
	}
	p.prev[h] = uint16(i)
	p.next[i] = uint16(h)
	p.head = uint16(i)
}

func (p *pwc) lookup(key uint64) bool {
	if p == nil {
		return false
	}
	for i, k := range p.keys[:p.n] {
		if k == key {
			p.touch(i)
			return true
		}
	}
	return false
}

func (p *pwc) insert(key uint64) {
	if p == nil {
		return
	}
	if p.n > 0 && p.keys[p.head] == key {
		return // already MRU — the usual case right after a hit
	}
	for i, k := range p.keys[:p.n] {
		if k == key {
			p.touch(i)
			return
		}
	}
	if p.n < len(p.keys) {
		i := p.n
		p.keys[i] = key
		if i == 0 {
			p.head, p.tail = 0, 0
		} else {
			p.prev[p.head] = uint16(i)
			p.next[i] = p.head
			p.head = uint16(i)
		}
		p.n++
		return
	}
	victim := int(p.tail)
	p.keys[victim] = key
	p.touch(victim)
}

// reset empties the PWC, restoring just-built behavior.
func (p *pwc) reset() {
	if p == nil {
		return
	}
	p.n = 0
	p.head, p.tail = 0, 0
}

// Result describes one serviced walk.
type Result struct {
	// Latency is the walk's duration in cycles: the sum of the memory
	// latencies of the entry loads (they are dependent, hence serial).
	Latency int
	// Refs is the number of page-table entry loads issued.
	Refs int
	// Skipped is the number of upper levels resolved by PWC hits.
	Skipped int
	// Phys and Size are the translation's result.
	Phys mem.Addr
	Size mem.PageSize
	// Fault reports a missing translation (never happens in the
	// experiments: pools are fully pre-mapped).
	Fault bool
}

// Stats aggregates walker activity.
type Stats struct {
	Walks      uint64
	WalkCycles uint64
	EntryLoads uint64
	PWCHitPML4 uint64
	PWCHitPDPT uint64
	PWCHitPD   uint64
	Faults     uint64
}

// Walker services page walks against one page table through one cache
// hierarchy.
type Walker struct {
	trans   *mem.Translator
	hier    *cache.Hierarchy
	pwcPML4 *pwc // caches PML4 entries, keyed by VA bits 47:39
	pwcPDPT *pwc // caches PDPT entries, keyed by VA bits 47:30
	pwcPD   *pwc // caches PD entries, keyed by VA bits 47:21
	stats   Stats
	// scratch is the reused walk-result buffer; refs are consumed before
	// the next walk overwrites it.
	scratch mem.Translation
}

// New builds a walker with the platform's PWC sizes. Walks resolve through
// trans — typically the same memo the owning machine translates with, so a
// TLB miss's walk refs come from a region entry the preceding translation
// just touched.
func New(trans *mem.Translator, hier *cache.Hierarchy, cfg arch.PWCConfig) *Walker {
	return &Walker{
		trans:   trans,
		hier:    hier,
		pwcPML4: newPWC(cfg.PML4Entries),
		pwcPDPT: newPWC(cfg.PDPTEntries),
		pwcPD:   newPWC(cfg.PDEntries),
	}
}

// Walk services one L2 TLB miss for virtual address v. The walker first
// consults its PWCs, deepest level first, then issues the remaining
// dependent entry loads through the cache hierarchy and sums their
// latencies — the four (or fewer) non-overlapping reads the paper
// describes in §II-B.
func (w *Walker) Walk(v mem.Addr) Result {
	w.stats.Walks++

	skip := 0
	switch {
	case w.pwcPD.lookup(uint64(v) >> 21):
		skip = 3
		w.stats.PWCHitPD++
	case w.pwcPDPT.lookup(uint64(v) >> 30):
		skip = 2
		w.stats.PWCHitPDPT++
	case w.pwcPML4.lookup(uint64(v) >> 39):
		skip = 1
		w.stats.PWCHitPML4++
	}

	tr := &w.scratch
	ok := w.trans.WalkFrom(v, skip, tr)
	res := Result{Skipped: skip}
	if !ok {
		w.stats.Faults++
		res.Fault = true
		return res
	}
	for i := 0; i < tr.NumRefs; i++ {
		_, lat := w.hier.Access(tr.Refs[i].EntryPhys, true)
		res.Latency += lat
		res.Refs++
	}
	w.stats.EntryLoads += uint64(res.Refs)
	w.stats.WalkCycles += uint64(res.Latency)
	res.Phys = tr.Phys
	res.Size = tr.Size

	// Install the non-terminal entries this walk traversed into the PWCs.
	// The terminal entry belongs to the TLB, whose missed Lookup already
	// filled it, not to the PWC.
	leafLevel := tr.Size.Level()
	if leafLevel < 4 {
		w.pwcPML4.insert(uint64(v) >> 39)
	}
	if leafLevel < 3 {
		w.pwcPDPT.insert(uint64(v) >> 30)
	}
	if leafLevel < 2 {
		w.pwcPD.insert(uint64(v) >> 21)
	}
	return res
}

// Stats returns a copy of the counters.
func (w *Walker) Stats() Stats { return w.stats }

// Reset re-targets the walker at a (possibly different) translator and
// clears the PWCs and counters. A Reset walker walks bit-identically to a
// freshly built one while keeping its PWC storage allocated. The caller is
// responsible for resetting trans itself (the owning machine shares it).
func (w *Walker) Reset(trans *mem.Translator) {
	w.trans = trans
	w.pwcPML4.reset()
	w.pwcPDPT.reset()
	w.pwcPD.reset()
	w.stats = Stats{}
}
