package cache

import "fmt"

// Checkpointable state: a Cache's observable behavior is fully determined
// by its tags array — set contents and recency order live in the same
// words (slot 0 MRU, back slot LRU) — so a snapshot is one copy of the
// array and a restore copies it back into a geometry-identical cache.
// Restore never resizes: checkpoints only make sense against the same
// platform configuration, and a length mismatch means the caller paired a
// checkpoint with the wrong machine.

// CacheState is the checkpointed content of one cache level.
type CacheState struct {
	Tags []uint32
}

// Snapshot captures the cache's line contents and recency order.
//
//mosvet:ckptexempt name,sets,assoc,lineBits,pow2,setMask,fastM,latency geometry and latency are platform configuration rebuilt by the constructor; Restore verifies compatibility via the tag-count check
func (c *Cache) Snapshot() CacheState {
	return CacheState{Tags: append([]uint32(nil), c.tags...)}
}

// Restore overwrites the cache's contents with a snapshot taken from a
// cache of identical geometry.
func (c *Cache) Restore(s CacheState) error {
	if len(s.Tags) != len(c.tags) {
		return fmt.Errorf("cache: %s: restore of %d tags into %d lines (platform mismatch?)",
			c.name, len(s.Tags), len(c.tags))
	}
	copy(c.tags, s.Tags)
	return nil
}

// HierarchyState is the checkpointed content of the whole hierarchy:
// every level's lines plus the cumulative load counters, so a restored
// hierarchy both hits/evicts and *counts* exactly as the original did
// from the checkpoint position on.
type HierarchyState struct {
	L1, L2, L3 CacheState
	// WalkerPrivate is non-nil iff the no-pollution ablation cache was
	// installed when the snapshot was taken.
	WalkerPrivate *CacheState
	Stats         Stats
}

// Snapshot captures all levels and the counters.
//
//mosvet:ckptexempt lineBits,dramLat geometry and DRAM latency are platform configuration rebuilt by the constructor, not replayed state
func (h *Hierarchy) Snapshot() HierarchyState {
	s := HierarchyState{
		L1:    h.l1.Snapshot(),
		L2:    h.l2.Snapshot(),
		L3:    h.l3.Snapshot(),
		Stats: h.stats,
	}
	if h.walkerPrivate != nil {
		wp := h.walkerPrivate.Snapshot()
		s.WalkerPrivate = &wp
	}
	return s
}

// Restore overwrites the hierarchy with a snapshot taken from a hierarchy
// of identical configuration. A snapshot that includes walker-private
// state requires the ablation cache to already be installed (via
// SetWalkerPrivate); a snapshot without one removes any installed
// ablation cache, mirroring Reset.
func (h *Hierarchy) Restore(s HierarchyState) error {
	if err := h.l1.Restore(s.L1); err != nil {
		return err
	}
	if err := h.l2.Restore(s.L2); err != nil {
		return err
	}
	if err := h.l3.Restore(s.L3); err != nil {
		return err
	}
	if s.WalkerPrivate != nil {
		if h.walkerPrivate == nil {
			return fmt.Errorf("cache: restore of walker-private state into a hierarchy without the ablation cache (call SetWalkerPrivate first)")
		}
		if err := h.walkerPrivate.Restore(*s.WalkerPrivate); err != nil {
			return err
		}
	} else {
		h.walkerPrivate = nil
	}
	h.stats = s.Stats
	return nil
}
