package cpu

import (
	"fmt"

	"mosaic/internal/ckpt"
	"mosaic/internal/mem"
	"mosaic/internal/pmu"
)

// Space returns the address space the machine replays against.
func (m *Machine) Space() *mem.AddressSpace { return m.space }

// Snapshot captures the machine's complete model state — component contents
// and counters, the walker-availability clocks, and the in-flight replay
// state (run clock, run counters, sampled-accounting sums). The clock and
// accumulator fields are cumulative, so a replay seeded from the snapshot
// harvests whole-prefix counters at its end.
//
//mosvet:ckptexempt Metrics Metrics is the partial simulator's stat block; full machines report through the clock and Sum fields instead
func (m *Machine) Snapshot() *ckpt.MachineState {
	st := &m.run
	return &ckpt.MachineState{
		HasClock:     true,
		Now:          st.now,
		MissRate:     st.missRate,
		WalkCycles:   st.walkCycles,
		Instructions: st.instructions,
		Breakdown:    [5]float64{st.bd.Base, st.bd.TLBHit, st.bd.WalkStall, st.bd.WalkQueue, st.bd.DataStall},
		WalkerFree:   append([]float64(nil), m.walkerFree...),
		TLB:          m.tlb.Snapshot(),
		Hier:         m.hier.Snapshot(),
		Walk:         m.walk.Snapshot(),
		SumTLB:       m.sums.tlb,
		SumHier:      m.sums.hier,
	}
}

// Restore overwrites the machine's model state — components and in-flight
// replay state — with a snapshot taken from a machine of identical
// platform. The translator memo, a pure performance cache invisible to
// counters, is cleared rather than restored. The accounting mode is the
// replay's (see Begin), not the snapshot's.
//
//mosvet:ckptexempt Metrics Metrics is the partial simulator's stat block; full-machine snapshots never carry it and restoreState rejects partial snapshots outright
func (m *Machine) Restore(s *ckpt.MachineState) error {
	if !s.HasClock {
		return fmt.Errorf("cpu: snapshot has no clock state (partial-simulator checkpoint?) — refusing to seed the replay clock from zeros")
	}
	if len(s.WalkerFree) != len(m.walkerFree) {
		return fmt.Errorf("cpu: restore of %d-walker state into %d walkers (platform mismatch?)",
			len(s.WalkerFree), len(m.walkerFree))
	}
	if err := m.tlb.Restore(s.TLB); err != nil {
		return err
	}
	if err := m.hier.Restore(s.Hier); err != nil {
		return err
	}
	if err := m.walk.Restore(s.Walk); err != nil {
		return err
	}
	m.trans.Reset(m.space.PageTable())
	copy(m.walkerFree, s.WalkerFree)
	m.run = runState{
		now:          s.Now,
		missRate:     s.MissRate,
		walkCycles:   s.WalkCycles,
		instructions: s.Instructions,
		bd: Breakdown{
			Base:      s.Breakdown[0],
			TLBHit:    s.Breakdown[1],
			WalkStall: s.Breakdown[2],
			WalkQueue: s.Breakdown[3],
			DataStall: s.Breakdown[4],
		},
	}
	m.sums = statSnap{tlb: s.SumTLB, hier: s.SumHier}
	return nil
}

// Lift harvests a checkpoint's cumulative sampled-accounting state into the
// PMU view — Harvest's mapping, from a snapshot instead of the live
// machine. Phased replay snapshots every machine at each phase boundary and
// attributes the field-wise difference of consecutive snapshots to the
// phase between them; because every field is cumulative, the per-phase
// deltas telescope to the whole-trace counters exactly. Requires a
// snapshot taken under sampled accounting, where the SumTLB/SumHier
// accumulators are populated.
func (m *Machine) Lift(s *ckpt.MachineState) (pmu.Counters, uint64) {
	st := runState{now: s.Now, walkCycles: s.WalkCycles, instructions: s.Instructions}
	return counters(&st, statSnap{tlb: s.SumTLB, hier: s.SumHier}), 0
}
