package lint

import (
	"fmt"
	"strings"
	"testing"
)

// analyze runs the suite over a single-file synthetic package scoped at
// relPath and returns findings as "line:check" strings.
func analyze(t *testing.T, relPath, src string, cfg *Config) []string {
	t.Helper()
	fs, err := AnalyzeSource(relPath, map[string]string{"src.go": src}, cfg)
	if err != nil {
		t.Fatalf("AnalyzeSource: %v", err)
	}
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		out = append(out, fmt.Sprintf("%d:%s", f.Pos.Line, f.Check))
	}
	return out
}

func wantFindings(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(want) == 0 {
		want = []string{}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
	}
}

func TestDetClock(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "wall clock in sim package",
			path: "internal/sim",
			src: `package p
import "time"
func eta() time.Time { return time.Now() }
func lap(t0 time.Time) time.Duration { return time.Since(t0) }
`,
			want: []string{"3:detclock", "4:detclock"},
		},
		{
			name: "timing-annotated scope is exempt",
			path: "internal/sim",
			src: `package p
import "time"

// eta reports progress.
//
//mosvet:timing progress ETA is presentation, not simulation
func eta(t0 time.Time) time.Duration { return time.Since(t0) }
`,
			want: nil,
		},
		{
			name: "global rand banned, seeded generator allowed",
			path: "internal/trace",
			src: `package p
import "math/rand"
func noisy() int { return rand.Intn(8) }
func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(8)
}
`,
			want: []string{"3:detclock"},
		},
		{
			name: "planner is a restricted package",
			path: "internal/plan",
			src: `package p
import "time"
func stamp() int64 { return time.Now().UnixNano() }
`,
			want: []string{"3:detclock"},
		},
		{
			name: "outside restricted packages nothing fires",
			path: "internal/report",
			src: `package p
import "time"
func now() time.Time { return time.Now() }
`,
			want: nil,
		},
		{
			name: "time.Sleep and formatting are not clock reads",
			path: "internal/sim",
			src: `package p
import "time"
func fmtd(d time.Duration) string { return d.String() }
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, tc.path, tc.src, DefaultConfig()), tc.want...)
		})
	}
}

func TestDetClockConfigScope(t *testing.T) {
	src := `package p
import "time"
func now() time.Time { return time.Now() }
`
	// Custom config restricting a different subtree: the same source flags
	// under it and passes outside it.
	cfg := &Config{DetClockPackages: []string{"pkg/core"}}
	wantFindings(t, analyze(t, "pkg/core/engine", src, cfg), "3:detclock")
	wantFindings(t, analyze(t, "pkg/ui", src, cfg))
}

func TestMapOrder(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "append without sort",
			src: `package p
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
			want: []string{"4:maporder"},
		},
		{
			name: "collect-then-sort idiom is clean",
			src: `package p
import "sort"
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`,
			want: nil,
		},
		{
			name: "float accumulation",
			src: `package p
func sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`,
			want: []string{"4:maporder"},
		},
		{
			name: "output writes",
			src: `package p
import (
	"fmt"
	"strings"
)
func dump(m map[string]int) string {
	var b strings.Builder
	for k, v := range m {
		fmt.Fprintf(&b, "%s=%d\n", k, v)
	}
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}
`,
			want: []string{"8:maporder", "11:maporder"},
		},
		{
			name: "order-insensitive bodies are clean",
			src: `package p
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	n := 0
	for k, v := range m {
		out[v] = k
		n++
	}
	return out
}
`,
			want: nil,
		},
		{
			name: "range over slice never fires",
			src: `package p
func total(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, "internal/anywhere", tc.src, DefaultConfig()), tc.want...)
		})
	}
}

func TestFloatEq(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "raw float equality",
			src: `package p
func eq(a, b float64) bool { return a == b }
func ne(a, b float32) bool { return a != b }
`,
			want: []string{"2:floateq", "3:floateq"},
		},
		{
			name: "Float64bits-mediated comparison is clean",
			src: `package p
import "math"
func eq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
`,
			want: nil,
		},
		{
			name: "integer and string equality are clean",
			src: `package p
func f(a, b int, s string) bool { return a == b && s != "x" }
`,
			want: nil,
		},
		{
			name: "constant-folded comparison is clean",
			src: `package p
const c = 1.5 == 2.5
`,
			want: nil,
		},
		{
			name: "comparison against zero still fires",
			src: `package p
func z(a float64) bool { return a == 0 }
`,
			want: []string{"2:floateq"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, "internal/anywhere", tc.src, DefaultConfig()), tc.want...)
		})
	}
}

func TestHotPath(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "annotated kernel with violations",
			src: `package p
import "fmt"

// kernel replays.
//
//mosvet:hotpath
func kernel(xs []int) (int, error) {
	defer func() {}()
	m := map[int]bool{}
	n := make(map[int]int, 4)
	_ = n
	for _, x := range xs {
		m[x] = true
	}
	if len(m) > 3 {
		return 0, fmt.Errorf("too many: %d", len(m))
	}
	return len(m), nil
}
`,
			want: []string{"8:hotpath", "9:hotpath", "10:hotpath", "16:hotpath"},
		},
		{
			name: "interface conversion in annotated kernel",
			src: `package p

//mosvet:hotpath
func kernel(x int) any { return any(x) }
`,
			want: []string{"4:hotpath"},
		},
		{
			name: "unannotated function is free to do all of it",
			src: `package p
import "fmt"
func helper(xs []int) error {
	defer func() {}()
	m := map[int]bool{}
	_ = m
	return fmt.Errorf("n=%d", len(xs))
}
`,
			want: nil,
		},
		{
			name: "clean annotated kernel",
			src: `package p

//mosvet:hotpath
func kernel(xs []int, acc []float64) {
	for i, x := range xs {
		acc[i%len(acc)] += float64(x)
	}
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, "internal/cpu", tc.src, DefaultConfig()), tc.want...)
		})
	}
}

func TestSuppression(t *testing.T) {
	t.Run("trailing same-line ignore with reason", func(t *testing.T) {
		wantFindings(t, analyze(t, "internal/stats", `package p
func eq(a, b float64) bool { return a == b } //mosvet:ignore floateq exact sentinel, justified here
`, DefaultConfig()))
	})
	t.Run("leading previous-line ignore with reason", func(t *testing.T) {
		wantFindings(t, analyze(t, "internal/stats", `package p
func eq(a, b float64) bool {
	//mosvet:ignore floateq exact sentinel, justified here
	return a == b
}
`, DefaultConfig()))
	})
	t.Run("ignore without reason is itself a finding", func(t *testing.T) {
		wantFindings(t, analyze(t, "internal/stats", `package p
func eq(a, b float64) bool {
	//mosvet:ignore floateq
	return a == b
}
`, DefaultConfig()), "3:mosvet", "4:floateq")
	})
	t.Run("ignore for a different check does not suppress", func(t *testing.T) {
		wantFindings(t, analyze(t, "internal/stats", `package p
func eq(a, b float64) bool {
	//mosvet:ignore maporder wrong check named
	return a == b
}
`, DefaultConfig()), "4:floateq")
	})
	t.Run("comma list suppresses multiple checks", func(t *testing.T) {
		wantFindings(t, analyze(t, "internal/serve", `package p
import (
	"os"
	"sync"
)
func f(mu *sync.Mutex, path string, a, b float64) bool {
	mu.Lock()
	//mosvet:ignore lockorder,floateq demo of a multi-check suppression
	os.Setenv("k", "v")
	_, _ = os.ReadFile(path) //mosvet:ignore lockorder cold startup path, no traffic yet
	mu.Unlock()
	return a == b //mosvet:ignore floateq exact sentinel
}
`, DefaultConfig()))
	})
}

func TestConfigChecksSubset(t *testing.T) {
	src := `package p
import "time"
func f(a, b float64) bool {
	_ = time.Now()
	return a == b
}
`
	cfg := DefaultConfig()
	cfg.Checks = []string{"floateq"}
	wantFindings(t, analyze(t, "internal/sim", src, cfg), "5:floateq")
	cfg.Checks = []string{"detclock"}
	wantFindings(t, analyze(t, "internal/sim", src, cfg), "4:detclock")
}

func TestMultiFilePackage(t *testing.T) {
	fs, err := AnalyzeSource("internal/stats", map[string]string{
		"a.go": "package p\n\nfunc Eq(a, b float64) bool { return a == b }\n",
		"b.go": "package p\n\nvar Sink = Eq(1, 2)\n",
	}, DefaultConfig())
	if err != nil {
		t.Fatalf("AnalyzeSource: %v", err)
	}
	// Synthetic filenames are prefixed with their package path so
	// suppression directives never collide across packages.
	if len(fs) != 1 || fs[0].Check != "floateq" || fs[0].Pos.Filename != "internal/stats/a.go" {
		t.Fatalf("want one floateq finding in internal/stats/a.go, got %v", fs)
	}
}

func TestAnalyzerNamesStable(t *testing.T) {
	want := []string{"detclock", "maporder", "floateq", "hotpath", "lockorder", "phasebound"}
	got := AnalyzerNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("analyzer set changed: got %v want %v (update docs/static-analysis.md)", got, want)
	}
}
