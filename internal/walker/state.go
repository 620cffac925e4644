package walker

import "fmt"

// Checkpointable state: a PWC's behavior is determined by its live keys,
// the recency linked list over them, and the fill count; the walker adds
// only its cumulative counters on top. The translator it resolves through
// is restored by the owning machine (the memo is a pure performance cache,
// invisible to counters), so walker state carries no translator content.

// PWCState is the checkpointed content of one page-walk cache. Keys, Prev,
// and Next hold only the live entries (keys[:n] of the ring storage);
// Entries records the configured capacity so a restore into a
// differently-sized PWC fails loudly.
type PWCState struct {
	Entries    int
	Keys       []uint64
	Prev, Next []uint16
	Head, Tail uint16
}

func (p *pwc) snapshot() PWCState {
	if p == nil {
		return PWCState{}
	}
	return PWCState{
		Entries: len(p.keys),
		Keys:    append([]uint64(nil), p.keys[:p.n]...),
		Prev:    append([]uint16(nil), p.prev[:p.n]...),
		Next:    append([]uint16(nil), p.next[:p.n]...),
		Head:    p.head,
		Tail:    p.tail,
	}
}

func (p *pwc) restore(name string, s PWCState) error {
	if p == nil {
		if s.Entries != 0 {
			return fmt.Errorf("walker: restore of %s state into a walker without that PWC (platform mismatch?)", name)
		}
		return nil
	}
	if s.Entries != len(p.keys) {
		return fmt.Errorf("walker: %s: restore of %d-entry state into %d entries (platform mismatch?)", name, s.Entries, len(p.keys))
	}
	n := len(s.Keys)
	if n > len(p.keys) || len(s.Prev) != n || len(s.Next) != n {
		return fmt.Errorf("walker: %s: inconsistent PWC state (%d keys, %d prev, %d next, %d entries)",
			name, n, len(s.Prev), len(s.Next), s.Entries)
	}
	if n > 0 && (int(s.Head) >= n || int(s.Tail) >= n) {
		return fmt.Errorf("walker: %s: PWC list head/tail %d/%d out of range for %d live entries", name, s.Head, s.Tail, n)
	}
	// The recency list must chain all n live entries from Head to Tail, or
	// a later touch indexes past them. Prev[Head] and Next[Tail] are
	// rewritten before they are read and may hold stale indices from
	// before a reset, so they are not checked.
	if n > 0 {
		seen := make([]bool, n)
		i := int(s.Head)
		seen[i] = true
		for k := 1; k < n; k++ {
			j := int(s.Next[i])
			if j >= n || seen[j] || int(s.Prev[j]) != i {
				return fmt.Errorf("walker: %s: PWC recency list broken after entry %d", name, i)
			}
			seen[j] = true
			i = j
		}
		if i != int(s.Tail) {
			return fmt.Errorf("walker: %s: PWC recency list ends at entry %d, not at tail %d", name, i, s.Tail)
		}
	}
	copy(p.keys, s.Keys)
	copy(p.prev, s.Prev)
	copy(p.next, s.Next)
	p.head, p.tail = s.Head, s.Tail
	p.n = n
	return nil
}

// State is the checkpointed content of a walker: all three PWCs plus the
// cumulative counters.
type State struct {
	PML4, PDPT, PD PWCState
	Stats          Stats
}

// Snapshot captures the walker's PWC contents and counters.
//
//mosvet:ckptexempt trans,hier,scratch trans and hier are wiring to sibling components snapshotted through their own contracts; scratch is a per-walk buffer that is dead between walks
func (w *Walker) Snapshot() State {
	return State{
		PML4:  w.pwcPML4.snapshot(),
		PDPT:  w.pwcPDPT.snapshot(),
		PD:    w.pwcPD.snapshot(),
		Stats: w.stats,
	}
}

// Restore overwrites the walker's PWCs and counters with a snapshot taken
// from a walker of identical configuration. The translator binding is
// untouched — the owning machine manages it, exactly as with Reset.
func (w *Walker) Restore(s State) error {
	if err := w.pwcPML4.restore("PWC-PML4", s.PML4); err != nil {
		return err
	}
	if err := w.pwcPDPT.restore("PWC-PDPT", s.PDPT); err != nil {
		return err
	}
	if err := w.pwcPD.restore("PWC-PD", s.PD); err != nil {
		return err
	}
	w.stats = s.Stats
	return nil
}
