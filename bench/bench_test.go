package bench

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n       int
		want    float64
		p, v    float64
		comment string
	}{
		{10000, 99.9, 99.9, 9990, "ten samples beyond p99.9"},
		{10000, 99, 99, 9900, "capped at the requested percentile"},
		{1000, 99.9, 99, 990, "p99.9 would leave one sample beyond"},
		{999, 99, 95, 950, "p99 would leave nine samples beyond"},
		{200, 99, 95, 190, ""},
		{100, 99, 90, 90, ""},
		{20, 99, 50, 10, "only the median has ten beyond"},
		{10, 99, 50, 5.5, "nothing resolves: the median"},
	}
	for _, c := range cases {
		p, v := tailPercentile(ramp(c.n), c.want)
		if math.Float64bits(p) != math.Float64bits(c.p) || math.Float64bits(v) != math.Float64bits(c.v) {
			t.Errorf("n=%d want p%g: got p%g=%g, want p%g=%g (%s)", c.n, c.want, p, v, c.p, c.v, c.comment)
		}
	}
}

func TestGrowingBacklog(t *testing.T) {
	flat := make([]float64, 300)
	jitter := make([]float64, 300)
	growing := make([]float64, 300)
	late := make([]float64, 300)
	for i := range flat {
		flat[i] = 0.4
		jitter[i] = 0.2 + float64(i%7)*0.3 // up to 2 ms of timer noise
		growing[i] = float64(i) * 0.05     // 15 ms behind by the end
		late[i] = 25                       // late throughout, but not falling further behind
	}
	cases := []struct {
		name   string
		delays []float64
		want   bool
	}{
		{"flat", flat, false},
		{"jitter", jitter, false},
		{"growing", growing, true},
		{"constant lateness", late, false},
		{"too short to judge", []float64{0, 50}, false},
	}
	for _, c := range cases {
		if got := growingBacklog(c.delays); got != c.want {
			t.Errorf("%s: growingBacklog = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []Span
		want  []time.Duration
	}{
		{"leaf", []Span{{ID: 1, Start: 0, End: 100}}, []time.Duration{100}},
		{"disjoint children", []Span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 10, End: 20},
			{ID: 3, Parent: 1, Start: 50, End: 70},
		}, []time.Duration{70, 10, 20}},
		{"overlapping children count once", []Span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 10, End: 40},
			{ID: 3, Parent: 1, Start: 30, End: 60},
			{ID: 4, Parent: 1, Start: 35, End: 45},
		}, []time.Duration{50, 30, 30, 10}},
		{"child outside its parent is clipped", []Span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 80, End: 130},
		}, []time.Duration{80, 50}},
		{"grandchildren subtract from their parent only", []Span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 0, End: 50},
			{ID: 3, Parent: 2, Start: 0, End: 40},
		}, []time.Duration{50, 10, 40}},
	}
	for _, c := range cases {
		got := SelfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) on the same data.
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if got := [3]float64{q1, q2, q3}; math.Abs(got[0]-c.want[0])+math.Abs(got[1]-c.want[1])+math.Abs(got[2]-c.want[2]) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestMaxRate(t *testing.T) {
	pass := func(rate, tail float64) rungOutcome { return rungOutcome{achieved: rate, tailMs: tail, pass: true} }
	fail := func(rate, tail float64) rungOutcome { return rungOutcome{achieved: rate, tailMs: tail} }
	cases := []struct {
		name  string
		rungs []rungOutcome
		want  float64
	}{
		{"crossing halfway in log space", []rungOutcome{pass(400, 2), pass(800, 5), fail(1600, 20)}, 800 * math.Sqrt2},
		{"failed on backlog within the limit", []rungOutcome{pass(400, 2), fail(800, 8)}, 400},
		{"every rung passes", []rungOutcome{pass(400, 2), pass(800, 3)}, 800},
		{"no rung passes", []rungOutcome{fail(400, 40)}, 100},
	}
	for _, c := range cases {
		if got := maxRate(c.rungs, 10); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: maxRate = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := Bound{Name: "sweep_s", Better: "lower", Bound: 0.2}
	higher := Bound{Name: "sim_maccess_per_s", Better: "higher", Bound: 0.2}
	cases := []struct {
		name           string
		b              Bound
		change, spread float64
		want           string
	}{
		{"within the bound", lower, 0.1, 0.05, "ok"},
		{"better", lower, -0.5, 0.05, "ok"},
		{"worse beyond the bound", lower, 0.3, 0.05, "worse"},
		{"worse beyond the bound, however noisy", lower, 0.4, 0.3, "worse"},
		{"within the bound but noisier than it", lower, 0.1, 0.3, "unresolved"},
		{"higher is better: a drop is worse", higher, -0.3, 0.05, "worse"},
		{"higher is better: a rise is fine", higher, 0.3, 0.05, "ok"},
	}
	for _, c := range cases {
		if got := verdict(c.b, c.change, c.spread); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric and workload catalog the
// program prints in step with the BENCHMARK.json the benchmark is run by.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string   `json:"paths"`
		Workloads []Workload `json:"workloads"`
		EndToEnd  []Def      `json:"end_to_end"`
		PerLayer  []Def      `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []Def) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, EndToEnd)
	same("per_layer", spec.PerLayer, PerLayer)
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %+v", i, w, Workloads[i])
		}
	}
}

// TestWorkloadsSmall runs every workload at its minimum size — one sweep,
// the Quick protocol, one one-second rate rung — untraced, and two of them
// traced, against a freshly built mosd. Every output check must pass and
// every catalog metric must be measured.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mosd and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	mosd := filepath.Join(t.TempDir(), "mosd")
	build := exec.Command("go", "build", "-o", mosd, "./cmd/mosd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building mosd: %v\n%s", err, out)
	}
	runs := []struct {
		workload string
		trace    bool
	}{
		{"sweep-walk", false}, {"sweep-index", false}, {"sweep-sampled", false}, {"serve-mixed", false},
		{"sweep-index", true}, {"serve-mixed", true},
	}
	for _, c := range runs {
		o := Options{
			Workload: c.workload, Seed: 1, Budget: time.Second, Trace: c.trace, Small: true,
			WorkDir: t.TempDir(), SpanDir: t.TempDir(), Mosd: mosd,
		}
		rep, err := Run(o)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", c.workload, c.trace, err)
		}
		if !rep.Correct() {
			t.Errorf("%s traced=%v: %d of %d operations failed: %q", c.workload, c.trace, rep.Failed, rep.Attempted, rep.Failures)
		}
		want := EndToEnd
		if c.trace {
			want = PerLayer
			if _, err := os.Stat(filepath.Join(o.SpanDir, "spans-"+c.workload+".json")); err != nil {
				t.Errorf("%s: traced run wrote no spans: %v", c.workload, err)
			}
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("%s traced=%v: %d metrics, want %d", c.workload, c.trace, len(rep.Metrics), len(want))
		}
		if rep.Digest == "" {
			t.Errorf("%s: no counter digest", c.workload)
		}
	}
}
