package partialsim

import (
	"fmt"

	"mosaic/internal/ckpt"
	"mosaic/internal/mem"
	"mosaic/internal/pmu"
)

// Space returns the address space the simulator replays against.
func (s *Simulator) Space() *mem.AddressSpace { return s.space }

// Snapshot captures the simulator's complete model state as a checkpoint.
// The partial simulator has no clock, so HasClock stays false and the
// in-flight metrics accumulator rides in the checkpoint's Metrics field;
// component state (TLB, caches, PWCs) uses the same layers as the full
// machine.
//
//mosvet:ckptexempt HasClock,Now,MissRate,WalkCycles,Instructions,Breakdown,WalkerFree,SumTLB,SumHier the partial simulator models no clock: HasClock stays false and the clock/accumulator section is meaningful only for full machines
func (s *Simulator) Snapshot() *ckpt.MachineState {
	m := &s.metrics
	return &ckpt.MachineState{
		Metrics: [5]uint64{m.H, m.M, m.C, m.Lookups, m.WalkRefs},
		TLB:     s.tlb.Snapshot(),
		Hier:    s.hier.Snapshot(),
		Walk:    s.walk.Snapshot(),
	}
}

// Restore overwrites the simulator's model state and metrics accumulator
// with a snapshot taken from a simulator of identical platform and
// fidelity, after rejecting clocked (full-machine) checkpoints. The
// translator memo — a pure performance cache, invisible to counters — is
// cleared rather than restored.
//
//mosvet:ckptexempt Now,MissRate,WalkCycles,Instructions,Breakdown,WalkerFree,SumTLB,SumHier clock and accumulator fields are zero in every partial-simulator snapshot; the HasClock guard rejects checkpoints where they are live
func (s *Simulator) Restore(st *ckpt.MachineState) error {
	if st.HasClock {
		return fmt.Errorf("partialsim: restore of a full-machine (clocked) checkpoint into a partial simulator")
	}
	if err := s.tlb.Restore(st.TLB); err != nil {
		return err
	}
	if err := s.hier.Restore(st.Hier); err != nil {
		return err
	}
	if err := s.walk.Restore(st.Walk); err != nil {
		return err
	}
	s.trans.Reset(s.space.PageTable())
	s.metrics = stateMetrics(st)
	return nil
}

// Lift harvests a checkpoint's cumulative metrics accumulator — Harvest's
// mapping, from a snapshot instead of the live simulator. Phased replay
// attributes the field-wise difference of consecutive phase-boundary
// snapshots to the phase between them; the deltas telescope to the
// whole-trace metrics exactly.
func (s *Simulator) Lift(st *ckpt.MachineState) (pmu.Counters, uint64) {
	return stateMetrics(st).counters()
}

func stateMetrics(st *ckpt.MachineState) Metrics {
	return Metrics{
		H:        st.Metrics[0],
		M:        st.Metrics[1],
		C:        st.Metrics[2],
		Lookups:  st.Metrics[3],
		WalkRefs: st.Metrics[4],
	}
}
