package trace

import "fmt"

// Multi-phase traces: a workload with distinct temporal regimes (build an
// index, then probe it; load an LSM, then compact it) records phase markers
// so the replay layers can attribute counters to each regime and the
// sampled estimator can extrapolate within phase boundaries instead of
// across them. A phase transition inside a skip stretch is exactly the
// failure mode stationary workloads never expose: the estimator would scale
// one regime's measured windows over another regime's accesses.
//
// Phases are purely positional — like SamplePlan they depend only on access
// indices — so every engine replaying a trace sees identical phase
// boundaries, whatever its layout, and phased replay composes with
// windowing.

// Phase is one contiguous regime [Lo, Hi) of a trace's accesses.
type Phase struct {
	Name   string
	Lo, Hi int
}

// Len returns the number of accesses in the phase.
func (p Phase) Len() int { return p.Hi - p.Lo }

// maxPhases bounds the phase count a decoded trace may declare — a sanity
// bound on wire input, not a design limit (the bundled composites use 2–3).
const maxPhases = 1 << 12

// validatePhases checks that phases form a contiguous ascending partition
// of [0, n): first Lo is 0, last Hi is n, each phase is non-empty, and
// consecutive phases abut.
func validatePhases(phases []Phase, n int) error {
	if len(phases) == 0 {
		return nil
	}
	if len(phases) > maxPhases {
		return fmt.Errorf("trace: %d phases exceeds limit %d", len(phases), maxPhases)
	}
	if phases[0].Lo != 0 {
		return fmt.Errorf("trace: first phase %q starts at %d, want 0", phases[0].Name, phases[0].Lo)
	}
	for i, p := range phases {
		if p.Hi <= p.Lo {
			return fmt.Errorf("trace: phase %q is empty ([%d, %d))", p.Name, p.Lo, p.Hi)
		}
		if i > 0 && p.Lo != phases[i-1].Hi {
			return fmt.Errorf("trace: phase %q starts at %d, want %d (phases must abut)",
				p.Name, p.Lo, phases[i-1].Hi)
		}
	}
	if last := phases[len(phases)-1]; last.Hi != n {
		return fmt.Errorf("trace: last phase %q ends at %d, want trace length %d", last.Name, last.Hi, n)
	}
	return nil
}

// Phases returns the trace's phase markers, or nil for a single-regime
// trace (the implicit whole-trace phase). The slice is the trace's own —
// callers must not mutate it. Derived traces (Sample, MultiSample) drop
// phase markers: a sampled slice of a multi-phase trace is not a partition
// of the original regimes.
func (t *Trace) Phases() []Phase { return t.phases }

// SetPhases installs phase markers on the trace. The phases must form a
// contiguous ascending partition of [0, Len()); nil clears them.
func (t *Trace) SetPhases(phases []Phase) error {
	if err := validatePhases(phases, t.cols.Len()); err != nil {
		return err
	}
	t.phases = phases
	return nil
}

// BeginPhase marks the start of a new phase at the builder's current
// position. The phase runs until the next BeginPhase or the end of the
// trace. If the first BeginPhase arrives after accesses were already
// recorded, those leading accesses become an implicit phase named "pre".
// A BeginPhase immediately following another (no accesses between) replaces
// the empty one. Without any BeginPhase calls the built trace is phase-less
// (Phases() == nil).
func (b *Builder) BeginPhase(name string) {
	pos := b.cols.Len()
	if len(b.marks) == 0 && pos > 0 {
		b.marks = append(b.marks, phaseMark{name: "pre", pos: 0})
	}
	if k := len(b.marks); k > 0 && b.marks[k-1].pos == pos {
		b.marks[k-1].name = name
		return
	}
	b.marks = append(b.marks, phaseMark{name: name, pos: pos})
}

// phaseMark is a pending phase start inside a Builder.
type phaseMark struct {
	name string
	pos  int
}

// buildPhases converts the builder's marks into a phase partition of a
// trace with n accesses. A trailing mark at position n (BeginPhase followed
// by no accesses) is dropped.
func buildPhases(marks []phaseMark, n int) []Phase {
	if len(marks) == 0 || n == 0 {
		return nil
	}
	phases := make([]Phase, 0, len(marks))
	for i, m := range marks {
		hi := n
		if i+1 < len(marks) {
			hi = marks[i+1].pos
		}
		if m.pos >= hi {
			continue
		}
		phases = append(phases, Phase{Name: m.name, Lo: m.pos, Hi: hi})
	}
	if len(phases) == 0 {
		return nil
	}
	return phases
}

// PhasedWindows returns the plan's replay schedule over a phased trace:
// the schedule is computed independently within each phase's range, so no
// window — measurement or warmup — ever spans a phase boundary, and each
// phase gets its own exactly-measured prologue stratum (the opening of a
// regime is its compulsory-miss transient, just as a trace's opening is).
// With nil phases the result is exactly Windows(n). The windows come back
// ascending and non-overlapping, like Windows.
func (p SamplePlan) PhasedWindows(phases []Phase, n int) []Window {
	if len(phases) == 0 {
		return p.Windows(n)
	}
	var out []Window
	for _, ph := range phases {
		for _, w := range p.Windows(ph.Len()) {
			out = append(out, Window{Lo: w.Lo + ph.Lo, Hi: w.Hi + ph.Lo, Measure: w.Measure})
		}
	}
	return out
}

// PhaseWindows returns the subset of a phased schedule that falls inside
// one phase. Windows from PhasedWindows never straddle boundaries, so the
// subset is a clean slice of the schedule.
func PhaseWindows(ws []Window, ph Phase) []Window {
	lo := 0
	for lo < len(ws) && ws[lo].Hi <= ph.Lo {
		lo++
	}
	hi := lo
	for hi < len(ws) && ws[hi].Lo < ph.Hi {
		hi++
	}
	return ws[lo:hi]
}
