package trace

import "testing"

// checkSchedule validates the structural invariants every schedule must
// hold: ordered, non-overlapping, clipped to [0, n), warmup immediately
// before a measurement window, no empty windows.
func checkSchedule(t *testing.T, ws []Window, n int) {
	t.Helper()
	prev := 0
	for i, w := range ws {
		if w.Lo < prev || w.Hi > n || w.Len() <= 0 {
			t.Fatalf("window %d = %+v out of order or empty (prev end %d, n %d)", i, w, prev, n)
		}
		if !w.Measure {
			if i+1 >= len(ws) || !ws[i+1].Measure || ws[i+1].Lo != w.Hi {
				t.Fatalf("warmup window %d = %+v not followed by an abutting measurement window", i, w)
			}
		}
		prev = w.Hi
	}
}

func TestSamplePlanDisabledCoversWholeTrace(t *testing.T) {
	for _, p := range []SamplePlan{{}, {Period: 0, MeasureLen: 5}, {Period: -1}} {
		ws := p.Windows(100)
		if len(ws) != 1 || ws[0] != (Window{Lo: 0, Hi: 100, Measure: true}) {
			t.Fatalf("plan %+v: windows = %+v, want one whole-trace measurement window", p, ws)
		}
	}
	if ws := (SamplePlan{Period: 10}).Windows(0); ws != nil {
		t.Fatalf("empty trace: windows = %+v, want nil", ws)
	}
}

func TestSamplePlanSchedule(t *testing.T) {
	p := SamplePlan{Period: 100, MeasureLen: 10, WarmupLen: 20}
	n := 250
	ws := p.Windows(n)
	checkSchedule(t, ws, n)
	want := []Window{
		{Lo: 0, Hi: 10, Measure: true}, // first warmup clipped to trace start
		{Lo: 80, Hi: 100},
		{Lo: 100, Hi: 110, Measure: true},
		{Lo: 180, Hi: 200},
		{Lo: 200, Hi: 210, Measure: true},
	}
	if len(ws) != len(want) {
		t.Fatalf("windows = %+v, want %+v", ws, want)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Fatalf("window %d = %+v, want %+v", i, ws[i], want[i])
		}
	}
	if got := p.Measured(n); got != 30 {
		t.Fatalf("Measured = %d, want 30", got)
	}
}

// TestSamplePlanFullCoverageIsExact: once MeasureLen reaches Period, the
// schedule must degenerate to the exact-replay schedule — a single
// measurement window with no warmup — whatever WarmupLen says.
func TestSamplePlanFullCoverageIsExact(t *testing.T) {
	for _, p := range []SamplePlan{
		{Period: 64, MeasureLen: 64, WarmupLen: 16},
		{Period: 64, MeasureLen: 100, WarmupLen: 200},
		{Period: 1, MeasureLen: 1, WarmupLen: 3},
	} {
		ws := p.Windows(1000)
		if len(ws) != 1 || ws[0] != (Window{Lo: 0, Hi: 1000, Measure: true}) {
			t.Fatalf("plan %+v: windows = %+v, want one merged whole-trace window", p, ws)
		}
		if p.Measured(1000) != 1000 {
			t.Fatalf("plan %+v: Measured != n", p)
		}
	}
}

// TestSamplePlanLongWarmup: warmup longer than the skipped stretch must clip
// against the previous measurement window, never overlap it.
func TestSamplePlanLongWarmup(t *testing.T) {
	p := SamplePlan{Period: 10, MeasureLen: 4, WarmupLen: 100}
	n := 35
	ws := p.Windows(n)
	checkSchedule(t, ws, n)
	want := []Window{
		{Lo: 0, Hi: 4, Measure: true},
		{Lo: 4, Hi: 10},
		{Lo: 10, Hi: 14, Measure: true},
		{Lo: 14, Hi: 20},
		{Lo: 20, Hi: 24, Measure: true},
		{Lo: 24, Hi: 30},
		{Lo: 30, Hi: 34, Measure: true},
	}
	for i := range want {
		if i >= len(ws) || ws[i] != want[i] {
			t.Fatalf("windows = %+v, want %+v", ws, want)
		}
	}
}

func TestSamplePlanDefaultsAndClamps(t *testing.T) {
	// MeasureLen <= 0 clamps to 1 access per period; negative warmup to 0.
	p := SamplePlan{Period: 10, MeasureLen: 0, WarmupLen: -5}
	ws := p.Windows(25)
	checkSchedule(t, ws, 25)
	if got := p.Measured(25); got != 3 {
		t.Fatalf("Measured = %d, want 3 (one access per period)", got)
	}
	for _, w := range ws {
		if !w.Measure {
			t.Fatalf("no warmup expected, got %+v", ws)
		}
	}
}

// TestSamplePlanPrologue: PrologueLen stretches the first measurement
// window; later windows keep the periodic schedule, and the prologue
// stratum length is reported by PrologueMeasured.
func TestSamplePlanPrologue(t *testing.T) {
	p := SamplePlan{Period: 100, MeasureLen: 10, WarmupLen: 20, PrologueLen: 40}
	n := 250
	ws := p.Windows(n)
	checkSchedule(t, ws, n)
	want := []Window{
		{Lo: 0, Hi: 40, Measure: true},
		{Lo: 80, Hi: 100},
		{Lo: 100, Hi: 110, Measure: true},
		{Lo: 180, Hi: 200},
		{Lo: 200, Hi: 210, Measure: true},
	}
	if len(ws) != len(want) {
		t.Fatalf("windows = %+v, want %+v", ws, want)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Fatalf("window %d = %+v, want %+v", i, ws[i], want[i])
		}
	}
	if got := p.Measured(n); got != 60 {
		t.Fatalf("Measured = %d, want 60", got)
	}
	if got := p.PrologueMeasured(n); got != 40 {
		t.Fatalf("PrologueMeasured = %d, want 40", got)
	}

	// A prologue reaching past later periods absorbs their windows and
	// clips their warmups — the schedule stays ordered and non-overlapping.
	long := SamplePlan{Period: 30, MeasureLen: 5, WarmupLen: 10, PrologueLen: 70}
	lws := long.Windows(200)
	checkSchedule(t, lws, 200)
	if lws[0] != (Window{Lo: 0, Hi: 70, Measure: true}) {
		t.Fatalf("long prologue: first window %+v, want [0,70) measured", lws[0])
	}
	if got := long.PrologueMeasured(200); got != 70 {
		t.Fatalf("long prologue: PrologueMeasured = %d, want 70", got)
	}

	// PrologueLen shorter than MeasureLen is a no-op, and a disabled plan's
	// prologue is the whole trace.
	if got := (SamplePlan{Period: 100, MeasureLen: 10, PrologueLen: 5}).Windows(250)[0]; got != (Window{Lo: 0, Hi: 10, Measure: true}) {
		t.Fatalf("short prologue: first window %+v, want [0,10) measured", got)
	}
	if got := (SamplePlan{}).PrologueMeasured(123); got != 123 {
		t.Fatalf("disabled plan: PrologueMeasured = %d, want 123", got)
	}
}

func TestColumnsWindows(t *testing.T) {
	var c Columns
	for i := 0; i < 50; i++ {
		c.Append(Access{VA: 0x1000})
	}
	p := SamplePlan{Period: 25, MeasureLen: 5}
	ws := p.Windows(c.Len())
	checkSchedule(t, ws, 50)
	if len(ws) != 2 || ws[0].Lo != 0 || ws[1].Lo != 25 {
		t.Fatalf("windows = %+v", ws)
	}
}
