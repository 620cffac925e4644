// Package ckpt defines the whole-machine checkpoint: the state a replay
// engine needs to resume a trace mid-stream as if it had replayed the
// whole prefix itself. Every stateful model layer exposes a
// Snapshot/Restore pair (cache.Hierarchy, tlb.TLB, walker.Walker; the
// mem.Translator memo is a pure performance cache, invisible to counters,
// and restores by clearing); the engines (internal/cpu,
// internal/partialsim) compose those component states with their own
// clock and accumulator state into a MachineState.
//
// The binary serialization, MOSCKPT01, is one field walk over the
// internal/binfmt codec (fixed magic, bounded length fields validated
// before allocation, little-endian fixed-width integers, floats as
// IEEE-754 bit patterns) written through its atomic temp+rename helper —
// so checkpoints can live in the trace cache directory and survive process
// restarts bit-identically.
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "MOSCKPT0"
//	version byte     '1' (bytes 0..9 spell "MOSCKPT01")
//	keyLen  uint16   checkpoint key length
//	key     []byte   caller-chosen identity (trace, platform, layout, ...)
//	pos     uint64   trace position the state corresponds to
//	flags   uint8    bit0 = has clock state (cpu engine),
//	                 bit1 = walker-private ablation cache present
//	clock   2×f64 (now, missRate), 2×u64 (walkCycles, instructions),
//	        5×f64 breakdown, u32 len + len×f64 walkerFree
//	sums    4×u64 TLB counts, 8×u64 hierarchy stats, 5×u64 partial metrics
//	tlb     5 × (u32 len + len×u64 tags), 4×u64 counts, 4×u64 missBySize
//	hier    3 × (u32 len + len×u32 tags), [flag bit1: u32 len + len×u32],
//	        8×u64 stats
//	walk    3 × PWC (u32 entries, u32 n, n×u64 keys, n×u16 prev,
//	        n×u16 next, u16 head, u16 tail), 7×u64 stats
package ckpt

import (
	"bufio"
	"fmt"
	"io"

	"mosaic/internal/binfmt"
	"mosaic/internal/cache"
	"mosaic/internal/tlb"
	"mosaic/internal/walker"
)

// Magic is the MOSCKPT01 file prefix: 8-byte format magic followed by a
// version byte, so the first nine bytes of a checkpoint file spell
// "MOSCKPT01".
var Magic = [8]byte{'M', 'O', 'S', 'C', 'K', 'P', 'T', '0'}

// Version is the format version byte following the magic.
const Version = '1'

const (
	// maxKeyLen bounds the checkpoint-key field.
	maxKeyLen = 1 << 12
	// maxTagArray is a sanity bound on serialized tag arrays (the largest
	// real one is the L3's ~246K lines), not a design limit.
	maxTagArray = 1 << 22
	// maxWalkers bounds the walkerFree array (real platforms have 1-2).
	maxWalkers = 1 << 10
	// maxPWCEntries bounds a PWC's capacity; the PWC's uint16 recency links
	// cannot index past this anyway.
	maxPWCEntries = 1 << 16
)

// MachineState is the whole-machine checkpoint at one trace position. The
// clock and accumulator fields hold *cumulative* values since the start of
// the trace, so an engine seeded from a MachineState finishes a suffix
// replay with exactly the counters a whole-trace replay would produce —
// the telescoping that makes windowed exact replay bit-identical.
type MachineState struct {
	// HasClock marks full-machine (cpu) state; the partial simulator has
	// no clock and leaves it false.
	HasClock bool
	// Now is the runtime clock in cycles; MissRate the miss-frequency EWMA.
	Now      float64
	MissRate float64
	// WalkCycles and Instructions are the cumulative C and instruction
	// counters.
	WalkCycles   uint64
	Instructions uint64
	// Breakdown holds the cpu.Breakdown components in declaration order
	// (Base, TLBHit, WalkStall, WalkQueue, DataStall).
	Breakdown [5]float64
	// WalkerFree is the per-hardware-walker next-free cycle.
	WalkerFree []float64

	// SumTLB and SumHier are the sampled replay's accumulated
	// measurement-window deltas (cpu engine).
	SumTLB  tlb.Counts
	SumHier cache.Stats
	// Metrics is the partial simulator's accumulator in field order
	// (H, M, C, Lookups, WalkRefs).
	Metrics [5]uint64

	// Component state.
	TLB  tlb.State
	Hier cache.HierarchyState
	Walk walker.State
}

const (
	flagClock         = 1 << 0
	flagWalkerPrivate = 1 << 1
)

// Encode serializes the state in the MOSCKPT01 format under the given key
// and trace position.
func (s *MachineState) Encode(w io.Writer, key string, pos int) (int64, error) {
	if pos < 0 {
		return 0, fmt.Errorf("ckpt: negative position %d", pos)
	}
	c := binfmt.NewEncoder()
	s.walk(c, &key, &pos)
	if err := c.Err(); err != nil {
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	n, err := w.Write(c.Bytes())
	return int64(n), err
}

// Decode deserializes a MOSCKPT01 stream, returning the stored key, trace
// position, and state. It rejects wrong magics, unknown versions, and any
// forged or truncated section.
func Decode(r io.Reader) (key string, pos int, s *MachineState, err error) {
	c := binfmt.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	s = &MachineState{}
	s.walk(c, &key, &pos)
	if err := c.Err(); err != nil {
		return "", 0, nil, fmt.Errorf("ckpt: %w", err)
	}
	return key, pos, s, nil
}

// walk is the MOSCKPT01 layout: Encode and Decode both run it.
func (s *MachineState) walk(c *binfmt.Codec, key *string, pos *int) {
	c.Tag(Magic[:], "magic")
	c.Tag([]byte{Version}, "version")
	c.Str(key, maxKeyLen)
	upos := uint64(*pos)
	c.U64(&upos)
	if upos > 1<<62 {
		c.Failf("implausible position %d", upos)
	}
	var flags uint8
	if s.HasClock {
		flags |= flagClock
	}
	if s.Hier.WalkerPrivate != nil {
		flags |= flagWalkerPrivate
	}
	c.U8(&flags)
	if c.Decoding() {
		*pos = int(upos)
		s.HasClock = flags&flagClock != 0
		if flags&flagWalkerPrivate != 0 {
			s.Hier.WalkerPrivate = &cache.CacheState{}
		}
	}

	// Clock section.
	c.F64(&s.Now)
	c.F64(&s.MissRate)
	c.U64(&s.WalkCycles)
	c.U64(&s.Instructions)
	for i := range s.Breakdown {
		c.F64(&s.Breakdown[i])
	}
	binfmt.Slice(c, &s.WalkerFree, c.Len32(len(s.WalkerFree), maxWalkers, "walker count"), c.F64)

	// Accumulator section.
	walkTLBCounts(c, &s.SumTLB)
	walkLoadStats(c, &s.SumHier)
	for i := range s.Metrics {
		c.U64(&s.Metrics[i])
	}

	// TLB section.
	walkU64s(c, &s.TLB.L14K, "TLB L1-4K")
	walkU64s(c, &s.TLB.L12M, "TLB L1-2M")
	walkU64s(c, &s.TLB.L11G, "TLB L1-1G")
	walkU64s(c, &s.TLB.L2, "TLB L2")
	walkU64s(c, &s.TLB.L21G, "TLB L2-1G")
	walkTLBCounts(c, &s.TLB.Counts)
	for i := range s.TLB.MissBySize {
		c.U64(&s.TLB.MissBySize[i])
	}

	// Hierarchy section.
	walkU32s(c, &s.Hier.L1.Tags, "L1 tags")
	walkU32s(c, &s.Hier.L2.Tags, "L2 tags")
	walkU32s(c, &s.Hier.L3.Tags, "L3 tags")
	if s.Hier.WalkerPrivate != nil {
		walkU32s(c, &s.Hier.WalkerPrivate.Tags, "walker-private tags")
	}
	walkLoadStats(c, &s.Hier.Stats)

	// Walker section.
	walkPWC(c, &s.Walk.PML4, "PWC-PML4")
	walkPWC(c, &s.Walk.PDPT, "PWC-PDPT")
	walkPWC(c, &s.Walk.PD, "PWC-PD")
	st := &s.Walk.Stats
	for _, v := range []*uint64{&st.Walks, &st.WalkCycles, &st.EntryLoads, &st.PWCHitPML4, &st.PWCHitPDPT, &st.PWCHitPD, &st.Faults} {
		c.U64(v)
	}
}

func walkU64s(c *binfmt.Codec, s *[]uint64, what string) {
	binfmt.Slice(c, s, c.Len32(len(*s), maxTagArray, what), c.U64)
}

func walkU32s(c *binfmt.Codec, s *[]uint32, what string) {
	binfmt.Slice(c, s, c.Len32(len(*s), maxTagArray, what), c.U32)
}

func walkTLBCounts(c *binfmt.Codec, t *tlb.Counts) {
	for _, v := range []*uint64{&t.Lookups, &t.L1Hits, &t.L2Hits, &t.Misses} {
		c.U64(v)
	}
}

func walkLoadStats(c *binfmt.Codec, st *cache.Stats) {
	for _, l := range []*cache.LoadCounts{&st.L1Loads, &st.L2Loads, &st.L3Loads, &st.DRAMLoads} {
		c.U64(&l.Program)
		c.U64(&l.Walker)
	}
}

func walkPWC(c *binfmt.Codec, p *walker.PWCState, what string) {
	entries := p.Entries
	c.IntU32(&entries)
	if entries > maxPWCEntries {
		c.Failf("implausible %s capacity %d", what, entries)
	}
	n := c.Len32(len(p.Keys), entries, what+" fill")
	if c.Decoding() {
		p.Entries = entries
	}
	binfmt.Slice(c, &p.Keys, n, c.U64)
	binfmt.Slice(c, &p.Prev, n, c.U16)
	binfmt.Slice(c, &p.Next, n, c.U16)
	c.U16(&p.Head)
	c.U16(&p.Tail)
}
