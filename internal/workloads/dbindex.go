package workloads

import (
	"fmt"
	"math/rand"

	"mosaic/internal/dbindex"
	"mosaic/internal/trace"
)

// Database-index workloads: multi-phase composites over the synthetic
// kernels of internal/dbindex. Each pairs a store-heavy, mostly sequential
// build/load regime with a random, pointer-chasing probe or merge regime —
// the phase structure that makes per-phase sampled extrapolation earn its
// keep (a sampler that scales build-regime rates over probe accesses is
// wrong in exactly the way headline totals hide).
//
// Footprints target tens of megabytes, matching the suite's ÷256 scaling
// convention: what the models consume is the relationship between access
// structure and (H, M, C), not absolute table sizes.

// dbindexGeometry centralizes the suite's index shapes.
var dbindexGeometry = struct {
	btreeKeys, btreeNode, btreeChase int
	lsmRuns, lsmEntries, lsmEntry    int
	joinBuckets, joinChain           int
}{
	btreeKeys:   1 << 20, // 1M keys, 512B nodes -> ~17MB tree, depth 5
	btreeNode:   512,
	btreeChase:  2,
	lsmRuns:     8, // 8 x 2MB runs + 16MB output
	lsmEntries:  1 << 15,
	lsmEntry:    64,
	joinBuckets: 1 << 18, // 4MB buckets + 32MB chain pool
	joinChain:   4,
}

// DBIndex returns the database-index suite: B+-tree point and range
// composites under three key distributions, the LSM load/compact cycle,
// and hash-join build/probe mixes.
func DBIndex() []Workload {
	return []Workload{
		NewBTreePoint(dbindex.Zipfian),
		NewBTreePoint(dbindex.Uniform),
		NewBTreeRange(dbindex.Sorted),
		NewLSMLoadCompact(),
		NewHashJoin(dbindex.Uniform),
		NewHashJoin(dbindex.Zipfian),
	}
}

// btreeArena lays out a B+-tree in freshly mapped anonymous memory.
func btreeArena(alloc *Allocator) (*dbindex.BTree, error) {
	g := dbindexGeometry
	bt := &dbindex.BTree{Keys: g.btreeKeys, NodeBytes: g.btreeNode, ChaseDepth: g.btreeChase}
	size, err := bt.ArenaBytes()
	if err != nil {
		return nil, err
	}
	base, err := alloc.MmapAnon(size)
	if err != nil {
		return nil, fmt.Errorf("dbindex: mapping btree arena: %w", err)
	}
	bt.Base = base
	return bt, nil
}

// btreeAnonBytes is the pool requirement shared by the B+-tree workloads.
func btreeAnonBytes() uint64 {
	g := dbindexGeometry
	bt := &dbindex.BTree{Keys: g.btreeKeys, NodeBytes: g.btreeNode}
	size, _ := bt.ArenaBytes()
	return size
}

// NewBTreePoint is the build-then-probe composite: phase "build" bulk-loads
// the tree in key order (sequential stores with occasional upper-level
// writes), phase "probe" issues point lookups under the key distribution —
// root-to-leaf pointer chases with intra-node binary search.
func NewBTreePoint(dist dbindex.Dist) Workload {
	name := "dbindex/btree-point-" + dist.String()
	return Phased(name, "dbindex", 1<<20, btreeAnonBytes(),
		func(alloc *Allocator, rng *rand.Rand) ([]Stage, error) {
			bt, err := btreeArena(alloc)
			if err != nil {
				return nil, err
			}
			keys := dist.Generator(rng, bt.Keys)
			return []Stage{
				{Name: "build", Weight: 1, Emit: func(b *trace.Builder, i int) {
					bt.BulkInsert(b, i%bt.Keys)
				}},
				{Name: "probe", Weight: 2, Emit: func(b *trace.Builder, i int) {
					bt.PointLookup(b, keys())
				}},
			}, nil
		})
}

// NewBTreeRange is the build-then-scan composite: after the bulk build,
// phase "scan" descends to a key and walks 64 entries across sibling
// leaves — the OLAP bulk-read mix.
func NewBTreeRange(dist dbindex.Dist) Workload {
	name := "dbindex/btree-range-" + dist.String()
	return Phased(name, "dbindex", 1<<20, btreeAnonBytes(),
		func(alloc *Allocator, rng *rand.Rand) ([]Stage, error) {
			bt, err := btreeArena(alloc)
			if err != nil {
				return nil, err
			}
			keys := dist.Generator(rng, bt.Keys)
			return []Stage{
				{Name: "build", Weight: 1, Emit: func(b *trace.Builder, i int) {
					bt.BulkInsert(b, i%bt.Keys)
				}},
				{Name: "scan", Weight: 2, Emit: func(b *trace.Builder, i int) {
					bt.RangeScan(b, keys(), 64)
				}},
			}, nil
		})
}

// NewLSMLoadCompact is the load-then-compact cycle: phase "load" drains
// memtable flushes into the runs (pure sequential stores), phase "compact"
// runs the K-way merge — one sequential read stream per run plus the
// output write stream.
func NewLSMLoadCompact() Workload {
	g := dbindexGeometry
	l := &dbindex.LSM{Runs: g.lsmRuns, RunEntries: g.lsmEntries, EntryBytes: g.lsmEntry}
	size, _ := l.ArenaBytes()
	return Phased("dbindex/lsm-loadcompact", "dbindex", 1<<20, size,
		func(alloc *Allocator, rng *rand.Rand) ([]Stage, error) {
			lsm := &dbindex.LSM{Runs: g.lsmRuns, RunEntries: g.lsmEntries, EntryBytes: g.lsmEntry}
			arena, err := lsm.ArenaBytes()
			if err != nil {
				return nil, err
			}
			base, err := alloc.MmapAnon(arena)
			if err != nil {
				return nil, fmt.Errorf("dbindex: mapping lsm arena: %w", err)
			}
			lsm.Base = base
			lsm.Reset()
			return []Stage{
				{Name: "load", Weight: 1, Emit: func(b *trace.Builder, i int) {
					lsm.Append(b, i)
				}},
				{Name: "compact", Weight: 1, Emit: func(b *trace.Builder, i int) {
					lsm.CompactStep(b, i)
				}},
			}, nil
		})
}

// NewHashJoin is the build-then-probe hash join: phase "build" inserts
// tuples (random bucket-header and chain-node stores), phase "probe" walks
// bucket chains under the key distribution — dependent loads end to end.
func NewHashJoin(dist dbindex.Dist) Workload {
	g := dbindexGeometry
	h := &dbindex.HashJoin{Buckets: g.joinBuckets, ChainLen: g.joinChain}
	size, _ := h.ArenaBytes()
	keySpace := g.joinBuckets * 2
	return Phased("dbindex/hashjoin-"+dist.String(), "dbindex", 1<<20, size,
		func(alloc *Allocator, rng *rand.Rand) ([]Stage, error) {
			hj := &dbindex.HashJoin{Buckets: g.joinBuckets, ChainLen: g.joinChain}
			arena, err := hj.ArenaBytes()
			if err != nil {
				return nil, err
			}
			base, err := alloc.MmapAnon(arena)
			if err != nil {
				return nil, fmt.Errorf("dbindex: mapping hashjoin arena: %w", err)
			}
			hj.Base = base
			keys := dist.Generator(rng, keySpace)
			return []Stage{
				{Name: "build", Weight: 1, Emit: func(b *trace.Builder, i int) {
					hj.BuildInsert(b, keys())
				}},
				{Name: "probe", Weight: 2, Emit: func(b *trace.Builder, i int) {
					hj.Probe(b, keys())
				}},
			}, nil
		})
}
